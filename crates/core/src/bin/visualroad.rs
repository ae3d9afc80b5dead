//! The `visualroad` command-line tool: generate datasets, run the
//! benchmark, and inspect results without writing Rust.
//!
//! ```text
//! visualroad presets
//! visualroad generate --scale 2 --res 192x108 --duration 1.0 --seed 7 --out /tmp/vr
//! visualroad run --engine functional --queries Q1,Q2a,Q2c --scale 1 --duration 0.5
//! visualroad run --engine all --full-suite --scale 1
//! ```
//!
//! Each command accepts exactly the flags it reads; any other `--name`
//! exits 1 before anything runs.

use std::sync::Arc;
use std::time::Instant;

use visual_road::base::fault::{self, DegradationSnapshot, FaultInjector, FaultPlan};
use visual_road::base::json::{Fixed, Layout::Inline, Writer};
use visual_road::prelude::*;
use visual_road::storage::FlatStore;
use visual_road::vdbms::{CalibrationProfile, QueryKind};

/// Every subcommand returns its exit code, or the message of the error
/// that stopped it; `main` is the only place an error becomes an exit.
type Exit = Result<i32, String>;

/// Each command, the flags it reads (and so accepts), and its body.
type Command = (&'static str, &'static [&'static str], fn(&Flags) -> Exit);

const COMMANDS: [Command; 7] = [
    ("presets", &[], cmd_presets),
    ("generate", &["scale", "res", "duration", "seed", "density", "nodes", "out"], cmd_generate),
    (
        "run",
        &[
            "engine", "queries", "full-suite", "scale", "res", "duration", "seed", "batch",
            "online", "write", "no-validate", "faults", "fault-seed", "deadline-ms", "trace-out",
            "explain", "explain-analyze", "explain-out", "optimizer", "profile",
        ],
        cmd_run,
    ),
    (
        "serve",
        &[
            "port", "engine", "queries", "full-suite", "scale", "res", "duration", "seed",
            "workers", "max-concurrent", "queue-depth", "tenant-quota", "degrade-load",
            "shed-load", "deadline-ms", "faults", "fault-seed", "use-index", "index",
            "qlog-out", "slow-query-ms", "slo",
        ],
        cmd_serve,
    ),
    ("ingest", &["scale", "res", "duration", "seed", "density", "nodes", "out"], cmd_ingest),
    (
        "search",
        &[
            "scale", "res", "duration", "seed", "kind", "class", "window", "k", "track", "video",
            "index", "rescan", "repeat", "profile", "explain", "out",
        ],
        cmd_search,
    ),
    ("calibrate", &["scale", "res", "duration", "seed", "out"], cmd_calibrate),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().and_then(|name| COMMANDS.iter().find(|(c, ..)| c == name));
    let Some(&(name, accepted, body)) = command else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let exit = Flags::parse(name, &args[1..], accepted).and_then(|flags| body(&flags));
    std::process::exit(exit.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        1
    }));
}

const USAGE: &str = "visualroad — the Visual Road VDBMS benchmark

USAGE:
  visualroad presets
      List the paper's pregenerated dataset configurations (Table 2).

  visualroad generate [--scale L] [--res WxH] [--duration SECS] [--seed S]
                      [--density D] [--nodes N] [--out DIR]
      Generate a dataset; with --out, write the .vrmf containers there.
      --nodes is the number of generator threads (default: the
      VR_WORKERS environment variable, else all cores).

  visualroad run [--engine NAME|all] [--queries Q1,Q2a,...|--full-suite]
                 [--scale L] [--res WxH] [--duration SECS] [--seed S]
                 [--batch N] [--online SPEEDUP] [--write DIR] [--no-validate]
                 [--faults SPEC] [--fault-seed S]
                 [--deadline-ms N] [--trace-out FILE]
                 [--explain | --explain-analyze] [--explain-out FILE]
                 [--optimizer on|off] [--profile FILE]
      Generate a dataset and drive the chosen engine(s) through the
      benchmark, printing the report. The driver's batch scheduler and
      each engine's pipelined executor use the VR_WORKERS environment
      variable's worker count, else all cores (1 forces the sequential
      paths). --batch overrides the 4·L instances per query and
      --online has the engines read every input as a forward-only RTP
      stream released at SPEEDUP times its capture rate, decoded as it
      arrives (a drop_rtp loss is a concealed frame, and the deadline
      covers the reads); both must be positive. --faults installs a
      deterministic fault plan seeded
      by --fault-seed (default 0), e.g.
      corrupt_bitstream=0.01,drop_rtp=0.05,stall_stage=kernel:20ms,
      io_fail=read:0.02,panic_kernel=q4:frame37 (frame K counts the
      frames pushed into the query's kernel; for Q9, face frames, four
      per stitched frame); after the run the injected-fault counts are
      checked against the recovery counters and any mismatch exits
      nonzero. --deadline-ms enforces a
      per-instance latency deadline via cooperative cancellation.
      --trace-out enables span tracing and writes a chrome-trace
      (trace_event JSON) profile loadable in chrome://tracing or
      Perfetto. Tracing never changes query results: timestamps exist
      only in the exported profile.
      --explain prints each engine's plan tree per query and exits
      without executing anything; --explain-analyze executes, then
      annotates each plan node with wall/self time, frame/byte flow,
      and allocator-scope peak memory (alloc tracking is switched on
      for the run), exiting nonzero if any plan fails its self-time
      invariant. --explain-out also writes the plans to FILE (a JSON
      document when FILE ends in .json, text otherwise).
      --optimizer switches the cost-based optimizer: off (default)
      keeps every engine's hand-tuned plan choices; on lets the cost
      model pick Q2(c)'s cascade order and the driver's instance
      fan-out, and --explain / --explain-analyze attach each
      chosen-vs-rejected plan table to the plan tree. --profile
      loads a calibration profile written by `visualroad calibrate`
      (default: the built-in seed table); parse failures exit
      nonzero.

  visualroad serve [--port P] [--engine NAME|all]
                   [--queries Q1,Q2a,...|--full-suite]
                   [--scale L] [--res WxH] [--duration SECS] [--seed S]
                   [--workers N] [--max-concurrent N]
                   [--queue-depth N] [--tenant-quota N]
                   [--degrade-load F] [--shed-load F] [--deadline-ms N]
                   [--faults SPEC] [--fault-seed S]
                   [--use-index | --index FILE]
                   [--qlog-out FILE] [--slow-query-ms N]
                   [--slo high=MS,low=MS[,target=F][,window=N]]
      Run the long-lived multi-tenant query server: generate the
      dataset, pregenerate per-query instance pools, load the
      engine(s), bind a loopback TCP endpoint (--port 0 picks an
      ephemeral port; the bound address is printed as
      `serving on ADDR` on stdout), and serve line-based requests
      (EXEC tenant=<id> priority=<high|low> query=<Qn>
      [engine=<name>] [deadline_ms=<n>] [online=<speedup>] | STATS |
      HEALTH | SHUTDOWN) from concurrent sessions, each request on
      --workers pipeline workers. Every request passes admission
      control: a bounded queue (--queue-depth) in front of
      --max-concurrent execution slots, per-tenant concurrency quotas
      (--tenant-quota), load shedding for low-priority work past the
      --degrade-load / --shed-load saturation thresholds (degraded
      requests run with one pipeline worker), and per-tenant circuit
      breakers (3 consecutive failures open the breaker for 250 ms,
      doubling per trip, half-open probe after). --deadline-ms is the
      default deadline for requests that carry none. SHUTDOWN (or
      stdin EOF) drains gracefully: stop admitting, flush in-flight
      work for up to 10 s, then exit 0 on a clean drain (1
      otherwise), printing the final per-tenant admission accounting
      as JSON on stdout. --faults installs a deterministic fault
      plan for chaos serving. --use-index ingests a semantic
      side index at startup (--index FILE loads a prebuilt .vrsx
      instead; an unusable file falls back to rescan with a warning)
      and serves the semantic query class S1 (count) / S2 (top-k) /
      S3 (similarity) from it; every OK response reports which route
      served it (route=index|rescan) and the per-tenant accounting
      splits index_served vs rescan_served. --qlog-out appends one
      structured JSON line per request (the query log) to FILE;
      --slow-query-ms captures a full EXPLAIN ANALYZE exemplar inline
      in the log for requests at or over the threshold. --slo sets
      per-priority latency objectives (milliseconds) for the
      per-tenant SLO tracker: STATS gains an `slo` block (burn
      rates).

  visualroad ingest [--scale L] [--res WxH] [--duration SECS] [--seed S]
                    [--density D] [--nodes N] [--out FILE]
      Run detection/tracking ONCE over the dataset's metadata box
      tracks, associate detections into tracklets, embed each tracklet
      into a scalar-quantized feature vector, and persist everything
      as a .vrsx container side index (default:
      results/index/dataset.vrsx). Ingest is fully deterministic: the
      same hyperparameters always produce a byte-identical file.

  visualroad search [--scale L] [--res WxH] [--duration SECS] [--seed S]
                    [--kind count|topk|similar] [--class vehicle|pedestrian|any]
                    [--window N] [--k N] [--track N] [--video N]
                    [--index FILE | --rescan] [--repeat N]
                    [--profile FILE] [--explain] [--out FILE]
      Answer one semantic query over the dataset, either from a .vrsx
      side index (--index; no frame ever decoded) or by redoing the
      full scan/associate pass per repetition (--rescan). Without
      either flag the index is built in memory first. The index-vs-
      rescan choice is cost-based: the optimizer compares an IndexScan
      candidate against the metadata rescan and --explain prints the
      chosen-vs-rejected table. A corrupt, truncated, or stale index
      file fails CLOSED into rescan (warning on stderr, exit 0).
      --repeat measures p50/p95 latency over N runs; for topk the
      answer's recall@k against VCG scene geometry is reported too.
      --out writes a one-line JSON artifact with route, latency
      quantiles, recall, and the rendered answer.

  visualroad calibrate [--scale L] [--res WxH] [--duration SECS] [--seed S]
                       [--out FILE]
      Run probe queries on a generated dataset, derive per-unit costs
      (ns/pixel decode, ns/MAC inference, cascade skip rate, ...) from
      the per-stage metrics, and write the optimizer calibration
      profile as deterministic JSON (default:
      results/optimizer_profile.json).

ENGINES: reference | batch | functional | cascade | all
QUERIES: Q1 Q2a Q2b Q2c Q2d Q3 Q4 Q5 Q6a Q6b Q7 Q8 Q9 Q10";

/// Tiny flag parser: `--name value` / `--name=value` pairs plus
/// boolean flags, each one the command reads.
struct Flags {
    given: Vec<(String, Option<String>)>,
    accepted: &'static [&'static str],
}

impl Flags {
    /// Pair up `args`; a flag outside `accepted` is an error naming
    /// `command`.
    fn parse(
        command: &str,
        args: &[String],
        accepted: &'static [&'static str],
    ) -> Result<Self, String> {
        let mut given = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(flag) = it.next() {
            let Some(flag) = flag.strip_prefix("--") else {
                return Err(format!("unexpected argument {flag:?}"));
            };
            let (name, value) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (flag, it.next_if(|v| !v.starts_with("--")).cloned()),
            };
            if !accepted.contains(&name) {
                return Err(format!("unknown flag --{name} for {command}"));
            }
            given.push((name.to_string(), value));
        }
        Ok(Self { given, accepted })
    }

    fn get(&self, name: &str) -> Option<&str> {
        debug_assert!(self.accepted.contains(&name), "--{name} read but not accepted");
        self.given.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        debug_assert!(self.accepted.contains(&name), "--{name} read but not accepted");
        self.given.iter().any(|(n, _)| n == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{name}: {v:?}")),
        }
    }

    /// `--name`'s value if the flag was given, parsed and accepted by
    /// `ok`; a value that does not parse or is not accepted is the
    /// error `complaint`.
    fn checked<T: std::str::FromStr>(
        &self,
        name: &str,
        ok: impl Fn(&T) -> bool,
        complaint: &str,
    ) -> Result<Option<T>, String> {
        match self.get(name).map(str::parse::<T>) {
            None => Ok(None),
            Some(Ok(v)) if ok(&v) => Ok(Some(v)),
            Some(_) => Err(complaint.to_string()),
        }
    }
}

/// [`Flags::checked`] predicates: any value that parses, and counts
/// that must be at least one.
fn any<T>(_: &T) -> bool {
    true
}

fn positive<T: PartialOrd + From<u8>>(v: &T) -> bool {
    *v >= T::from(1)
}

/// `--name MS`: a positive number of milliseconds, if given.
fn millis(flags: &Flags, name: &str) -> Result<Option<std::time::Duration>, String> {
    let complaint = format!("--{name} wants a positive integer");
    Ok(flags.checked(name, positive::<u64>, &complaint)?.map(std::time::Duration::from_millis))
}

fn parse_res(flags: &Flags, default: Resolution) -> Result<Resolution, String> {
    match flags.get("res") {
        None => Ok(default),
        Some(v) => {
            let (w, h) = v.split_once('x').ok_or_else(|| format!("--res wants WxH, got {v:?}"))?;
            Ok(Resolution::new(
                w.parse().map_err(|_| format!("bad width {w:?}"))?,
                h.parse().map_err(|_| format!("bad height {h:?}"))?,
            ))
        }
    }
}

fn hyper_from(flags: &Flags) -> Result<Hyperparameters, String> {
    let scale = flags.parsed("scale", 1u32)?;
    let res = parse_res(flags, Resolution::new(192, 108))?;
    let complaint = "--duration wants a non-negative number of seconds";
    let secs = flags.checked("duration", |&d: &f64| d.is_finite() && d >= 0.0, complaint)?;
    let duration = Duration::from_secs(secs.unwrap_or(1.0));
    let seed = flags.parsed("seed", 0u64)?;
    Hyperparameters::new(scale, res, duration, seed).map_err(|e| e.to_string())
}

/// `--density` / `--nodes`, for the two commands whose product is the
/// dataset itself (`generate`, `ingest`).
fn gen_config(flags: &Flags) -> Result<GenConfig, String> {
    let complaint = "--density wants a positive number";
    Ok(GenConfig {
        density_scale: flags
            .checked("density", |&d: &f64| d.is_finite() && d > 0.0, complaint)?
            .unwrap_or(0.15),
        nodes: flags.parsed("nodes", visual_road::base::sync::worker_budget())?,
        ..Default::default()
    })
}

/// Say `note` on stderr, then generate the dataset.
fn generate_dataset(
    note: &str,
    cfg: GenConfig,
    hyper: &Hyperparameters,
) -> Result<Dataset, String> {
    eprintln!("{note}");
    Vcg::new(cfg).generate(hyper).map_err(|e| e.to_string())
}

/// `--profile FILE`: a calibration profile written by `calibrate`.
fn load_profile(flags: &Flags) -> Result<Option<CalibrationProfile>, String> {
    flags
        .get("profile")
        .map(|path| {
            CalibrationProfile::load(std::path::Path::new(path))
                .map_err(|e| format!("cannot load calibration profile {path}: {e}"))
        })
        .transpose()
}

/// The fault plan — `--faults SPEC [--fault-seed S]` — read with the
/// other flags, before anything runs. A `panic_kernel` query must be
/// one `QueryKind::parse` knows, in either spelling; the plan keeps
/// its short label, the one a pipeline's kernel is labelled with.
fn fault_plan(flags: &Flags) -> Result<Option<Arc<FaultInjector>>, String> {
    let Some(spec) = flags.get("faults") else {
        return Ok(None);
    };
    let seed = flags.parsed("fault-seed", 0u64)?;
    let mut plan = FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))?;
    if let Some((query, _)) = &mut plan.panic_kernel {
        let kind = QueryKind::parse(query)
            .ok_or_else(|| format!("--faults: panic_kernel names no query: {query:?}"))?;
        *query = kind.short_label().to_ascii_lowercase();
    }
    Ok(Some(Arc::new(FaultInjector::new(plan, seed))))
}

/// Announce the fault plan the run goes on under. Dataset generation
/// never sees it, so chaos runs exercise the query path against a
/// pristine dataset.
fn announce_fault_plan(injector: &Option<Arc<FaultInjector>>) {
    if let Some(inj) = injector {
        eprintln!("fault plan active (seed {}): {:?}", inj.seed(), inj.plan());
    }
}

/// Write `body` to `path`, creating the directory it goes in. `what`
/// names the content in the error message ("cannot write <what><path>").
fn write_creating_parent(path: &str, what: &str, body: impl AsRef<[u8]>) -> Result<(), String> {
    let parent = std::path::Path::new(path).parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = parent {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, body).map_err(|e| format!("cannot write {what}{path}: {e}"))
}

/// `--explain-out FILE`, if given.
fn write_plans(flags: &Flags, body: impl FnOnce(&str) -> String) -> Result<(), String> {
    if let Some(path) = flags.get("explain-out") {
        std::fs::write(path, body(path))
            .map_err(|e| format!("cannot write plans to {path}: {e}"))?;
        eprintln!("wrote plans to {path}");
    }
    Ok(())
}

fn cmd_presets(_: &Flags) -> Exit {
    println!("{:<10} {:>3} {:>12} {:>10}", "name", "L", "resolution", "duration");
    for p in &visual_road::base::presets::PRESETS {
        println!(
            "{:<10} {:>3} {:>12} {:>9}m",
            p.name,
            p.scale,
            p.resolution.to_string(),
            p.duration_mins
        );
    }
    Ok(0)
}

fn cmd_generate(flags: &Flags) -> Exit {
    let hyper = hyper_from(flags)?;
    let cfg = gen_config(flags)?;
    let note = format!(
        "generating L={} R={} t={} seed={} ...",
        hyper.scale, hyper.resolution, hyper.duration, hyper.seed
    );
    let t0 = Instant::now();
    let dataset = generate_dataset(&note, cfg, &hyper)?;
    println!(
        "generated {} videos / {} frames / {:.1} KiB in {:.2}s",
        dataset.videos.len(),
        dataset.total_frames(),
        dataset.total_bytes() as f64 / 1024.0,
        t0.elapsed().as_secs_f64()
    );
    if let Some(dir) = flags.get("out") {
        let store = FlatStore::open(dir).map_err(|e| e.to_string())?;
        dataset.write_to_store(&store).map_err(|e| e.to_string())?;
        println!("wrote {} files to {dir}", dataset.videos.len());
    }
    Ok(0)
}

fn parse_queries(flags: &Flags) -> Result<Vec<QueryKind>, String> {
    if flags.has("full-suite") {
        return Ok(QueryKind::ALL.to_vec());
    }
    let Some(spec) = flags.get("queries") else {
        return Ok(vec![QueryKind::Q1Select, QueryKind::Q2aGrayscale]);
    };
    spec.split(',')
        .map(|q| {
            QueryKind::parse(q)
                .ok_or_else(|| format!("unknown query {:?}", q.trim().to_ascii_uppercase()))
        })
        .collect()
}

fn engines_from(name: &str) -> Result<Vec<Box<dyn Vdbms>>, String> {
    Ok(match name {
        "reference" => vec![Box::new(ReferenceEngine::new())],
        "batch" => vec![Box::new(BatchEngine::new())],
        "functional" => vec![Box::new(FunctionalEngine::new())],
        "cascade" => vec![Box::new(CascadeEngine::new())],
        "all" => vec![
            Box::new(ReferenceEngine::new()),
            Box::new(BatchEngine::new()),
            Box::new(FunctionalEngine::new()),
            Box::new(CascadeEngine::new()),
        ],
        other => return Err(format!("unknown engine {other:?}")),
    })
}

fn cmd_run(flags: &Flags) -> Exit {
    let hyper = hyper_from(flags)?;
    let queries = parse_queries(flags)?;
    let mut engines = engines_from(flags.get("engine").unwrap_or("reference"))?;
    let mut cfg = VcdConfig {
        validate: !flags.has("no-validate"),
        batch_size: flags.checked("batch", positive::<usize>, "--batch wants a positive integer")?,
        instance_deadline: millis(flags, "deadline-ms")?,
        profile: load_profile(flags)?,
        ..Default::default()
    };
    let complaint = "--online wants a positive speedup factor";
    if let Some(speedup) = flags.checked("online", |&s: &f64| s > 0.0, complaint)? {
        cfg.mode = ExecutionMode::Online { speedup };
    }
    if let Some(dir) = flags.get("write") {
        cfg.write_store = Some(FlatStore::open(dir).map_err(|e| e.to_string())?);
    }
    if flags.has("explain-analyze") {
        cfg.explain = visual_road::ExplainMode::Analyze;
    }
    if let Some(mode) = flags.get("optimizer") {
        cfg.optimizer = mode.parse()?;
    }
    let injector = fault_plan(flags)?;
    cfg.faults = injector.clone();
    let dataset = generate_dataset("generating dataset ...", GenConfig::default(), &hyper)?;

    // Allocator scope tracking, for --explain-analyze's plan nodes,
    // which report allocations and peak memory.
    if cfg.explain == visual_road::ExplainMode::Analyze {
        vr_base::obs::alloc::set_tracking(true);
    }
    announce_fault_plan(&injector);

    // Tracing is opt-in, enabled only after dataset generation so the
    // profile covers the query path, not the generator.
    let trace_out = flags.get("trace-out");
    if trace_out.is_some() {
        vr_base::obs::trace::set_enabled(true);
    }

    let vcd = Vcd::new(&dataset, cfg);

    // EXPLAIN without execution: print (and optionally save) each
    // engine's plan per query, then exit.
    if flags.has("explain") {
        let mut doc = String::new();
        for engine in &engines {
            for (kind, text) in vcd.explain(engine.as_ref(), &queries).map_err(|e| e.to_string())? {
                doc.push_str(&format!("== {} {} ==\n{text}", engine.name(), kind.label()));
            }
        }
        print!("{doc}");
        write_plans(flags, |_| doc)?;
        return Ok(0);
    }

    let mut explain_doc = String::new();
    let mut explain_json: Vec<String> = Vec::new();
    let mut explain_violations = 0usize;
    let mut recovered = Vec::new();
    for engine in engines.iter_mut() {
        let report = vcd.run_queries(engine.as_mut(), &queries).map_err(|e| e.to_string())?;
        println!("{report}");
        recovered.push(report.recovered());
        for q in &report.queries {
            let QueryStatus::Completed { explain: Some(info), .. } = &q.status else {
                continue;
            };
            explain_doc.push_str(&format!(
                "== {} {} ==\n{}",
                report.engine,
                q.kind.label(),
                info.text
            ));
            explain_json.push(explain_entry(&report.engine, q.kind.label(), &info.json));
            if let Some(err) = &info.verify_error {
                eprintln!(
                    "explain verify FAILED ({} {}): {err}",
                    report.engine,
                    q.kind.label()
                );
                explain_violations += 1;
            }
        }
    }
    write_plans(flags, |path| {
        if path.ends_with(".json") {
            format!("[{}]\n", explain_json.join(",\n "))
        } else {
            explain_doc
        }
    })?;

    if let Some(path) = trace_out {
        vr_base::obs::trace::set_enabled(false);
        let n = vr_base::obs::trace::save(path)
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        eprintln!("wrote {n} trace events to {path}");
    }

    let recovered = recovered.into_iter().sum();
    let fault_code = injector.as_deref().map_or(0, |inj| verify_fault_accounting(inj, &recovered));
    if explain_violations > 0 {
        eprintln!("error: {explain_violations} plan(s) failed EXPLAIN ANALYZE verification");
        return Ok(1);
    }
    Ok(fault_code)
}

/// `visualroad serve`: the long-lived multi-tenant query server.
/// Generates the dataset, pregenerates per-query instance pools,
/// loads the engines, binds loopback TCP, and serves until a
/// `SHUTDOWN` request (or stdin EOF) drains it gracefully.
fn cmd_serve(flags: &Flags) -> Exit {
    use visual_road::base::admission::AdmissionConfig;
    use visual_road::base::obs::slo::SloConfig;
    use visual_road::server::{QueryServer, ServerConfig};

    let hyper = hyper_from(flags)?;
    let queries = parse_queries(flags)?;
    let engines = engines_from(flags.get("engine").unwrap_or("batch"))?;

    let count = |name: &str| {
        flags.checked(name, positive::<usize>, &format!("--{name} wants a positive integer"))
    };
    let load = |name: &str| {
        let complaint = format!("--{name} wants a positive saturation fraction");
        flags.checked(name, |&f: &f64| f > 0.0, &complaint)
    };
    let defaults = AdmissionConfig::default();
    let admission = AdmissionConfig {
        max_concurrent: count("max-concurrent")?.unwrap_or(defaults.max_concurrent),
        queue_depth: flags
            .checked("queue-depth", any::<usize>, "--queue-depth wants an integer")?
            .unwrap_or(defaults.queue_depth),
        tenant_quota: count("tenant-quota")?.unwrap_or(defaults.tenant_quota),
        degrade_load: load("degrade-load")?.unwrap_or(defaults.degrade_load),
        shed_load: load("shed-load")?.unwrap_or(defaults.shed_load),
        ..defaults
    };
    let cfg = ServerConfig {
        port: flags
            .checked("port", any::<u16>, "--port wants a port number (0 = ephemeral)")?
            .unwrap_or(0),
        admission,
        workers: count("workers")?.unwrap_or_else(vr_base::sync::worker_budget),
        default_deadline: millis(flags, "deadline-ms")?,
        queries,
        use_index: flags.has("use-index"),
        index_path: flags.get("index").map(str::to_string),
        qlog_path: flags.get("qlog-out").map(str::to_string),
        slow_query: millis(flags, "slow-query-ms")?,
        slo: match flags.get("slo") {
            Some(spec) => SloConfig::parse(spec).map_err(|e| format!("--slo: {e}"))?,
            None => SloConfig::default(),
        },
        faults: fault_plan(flags)?,
    };

    let dataset = generate_dataset("generating dataset ...", GenConfig::default(), &hyper)?;
    announce_fault_plan(&cfg.faults);

    let server = QueryServer::start(dataset, engines, cfg).map_err(|e| e.to_string())?;
    // The bound address goes to stdout so drivers can scrape it even
    // with --port 0.
    println!("serving on {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // stdin EOF (the parent closed the pipe) is the out-of-band stop
    // signal; a TCP SHUTDOWN drains the same way.
    let handle = server.shutdown_handle();
    let _ = std::thread::Builder::new()
        .name("vr-serve-stdin".to_string())
        .spawn(move || {
            let mut buf = String::new();
            loop {
                buf.clear();
                match std::io::stdin().read_line(&mut buf) {
                    Ok(0) | Err(_) => {
                        handle.shutdown();
                        return;
                    }
                    Ok(_) => {
                        if buf.trim().eq_ignore_ascii_case("shutdown") {
                            handle.shutdown();
                            return;
                        }
                    }
                }
            }
        });

    let report = server.wait();
    print!("{}", report.stats_json);
    if report.clean {
        eprintln!("drained cleanly");
        Ok(0)
    } else {
        eprintln!("drain timed out with work still in flight");
        Ok(1)
    }
}

/// `visualroad calibrate`: run probe queries on a generated dataset,
/// derive per-unit costs from the per-stage metrics in the reports,
/// and persist the optimizer's calibration profile as deterministic
/// JSON. The thread-spawn cost, the gate cost and the index probe
/// cost keep their built-in seeds — this single sequential pass does
/// not exercise them.
fn cmd_calibrate(flags: &Flags) -> Exit {
    use visual_road::vdbms::{PipelineSnapshot, StageKind, StageSnapshot};
    let hyper = hyper_from(flags)?;
    let out = flags.get("out").unwrap_or("results/optimizer_profile.json");
    let dataset =
        generate_dataset("generating calibration dataset ...", GenConfig::default(), &hyper)?;
    let px = (hyper.resolution.width as u64 * hyper.resolution.height as u64).max(1) as f64;

    // Probes run without validation (the oracle's reference pipelines
    // would pollute the stage aggregates) and fully sequentially, so
    // the derived per-unit costs are undiluted by scheduler overlap.
    let vcd = Vcd::new(
        &dataset,
        VcdConfig {
            validate: false,
            batch_size: Some(2),
            pipeline_workers: Some(1),
            batch_workers: Some(1),
            ..Default::default()
        },
    );
    let probe = |engine: &mut dyn Vdbms, kind: QueryKind| -> Result<PipelineSnapshot, String> {
        let report = vcd.run_queries(engine, &[kind]).map_err(|e| e.to_string())?;
        report
            .queries
            .iter()
            .find_map(|q| match &q.status {
                QueryStatus::Completed { stages, .. } => Some(*stages),
                _ => None,
            })
            .ok_or_else(|| format!("probe {} did not complete", kind.label()))
    };

    eprintln!("probing per-pixel stages (reference Q2a) ...");
    let mut reference = ReferenceEngine::new();
    let pixel_probe = probe(&mut reference, QueryKind::Q2aGrayscale)?;
    eprintln!("probing NN inference (reference Q2c) ...");
    let nn_probe = probe(&mut reference, QueryKind::Q2cBoxes)?;
    eprintln!("probing cascade skip rate (cascade Q2c) ...");
    let mut cascade = CascadeEngine::new();
    probe(&mut cascade, QueryKind::Q2cBoxes)?;
    let (cheap, full) = cascade.cascade_stats();

    let mut profile = CalibrationProfile::builtin();
    let per_frame =
        |s: StageSnapshot| (s.frames > 0).then(|| s.nanos as f64 / s.frames as f64);
    if let Some(v) = per_frame(pixel_probe.stage(StageKind::Decode)) {
        profile.decode_ns_per_pixel = v / px;
    }
    if let Some(v) = per_frame(pixel_probe.stage(StageKind::Encode)) {
        profile.encode_ns_per_pixel = v / px;
    }
    if let Some(v) = per_frame(pixel_probe.stage(StageKind::Scan)) {
        profile.scan_ns_per_frame = v;
    }
    if let Some(v) = per_frame(pixel_probe.stage(StageKind::Sink)) {
        profile.sink_ns_per_frame = v;
    }
    if let Some(v) = per_frame(pixel_probe.stage(StageKind::Kernel)) {
        profile.kernel_ns_per_pixel = v / px;
    }
    // The reference Q2(c) probe runs the full model on every frame at
    // the default MAC budget over the network-input floor.
    let net_px = px.max(visual_road::vision::yolo::NETWORK_INPUT_PIXELS as f64);
    let full_macs = visual_road::vdbms::cascade::CascadeConfig::default().full_macs_per_pixel;
    if let Some(v) = per_frame(nn_probe.stage(StageKind::Kernel)) {
        profile.nn_ns_per_mac = v / (net_px * full_macs);
    }
    if cheap + full > 0 {
        profile.cascade_skip_rate = cheap as f64 / (cheap + full) as f64;
    }
    write_creating_parent(out, "profile to ", profile.to_json())?;
    eprintln!("wrote calibration profile to {out}");
    print!("{}", profile.to_json());
    Ok(0)
}

/// `visualroad ingest`: the ingest-once pass. Generate the dataset,
/// scan its metadata box tracks, and persist the tracklet side index.
fn cmd_ingest(flags: &Flags) -> Exit {
    use visual_road::semantic::{ingest_dataset, IngestStats};
    let hyper = hyper_from(flags)?;
    let cfg = gen_config(flags)?;
    let out = flags.get("out").unwrap_or("results/index/dataset.vrsx");
    let dataset = generate_dataset("generating dataset ...", cfg, &hyper)?;
    let t0 = Instant::now();
    let (index, bytes) = ingest_dataset(&dataset).map_err(|e| e.to_string())?;
    let stats = IngestStats::of(&index, bytes.len());
    write_creating_parent(out, "side index to ", &bytes)?;
    println!(
        "ingested {} videos / {} frames / {} tracklets / {} B in {:.2}s",
        stats.videos,
        stats.frames,
        stats.tracklets,
        stats.bytes,
        t0.elapsed().as_secs_f64()
    );
    println!("wrote {out}");
    Ok(0)
}

/// `visualroad search`: answer one semantic query, via the side index
/// or via full rescan, with latency quantiles and (for top-k) recall
/// against VCG scene geometry.
fn cmd_search(flags: &Flags) -> Exit {
    use visual_road::base::Error;
    use visual_road::scene::entity::ObjectClass;
    use visual_road::semantic::{
        acquire_index, recall_at_k, truth_top_segments, SemanticAnswer, SemanticQuery,
        SemanticRouter,
    };

    let hyper = hyper_from(flags)?;
    let class = match flags.get("class").unwrap_or("any") {
        "vehicle" => Some(ObjectClass::Vehicle),
        "pedestrian" => Some(ObjectClass::Pedestrian),
        "any" => None,
        other => return Err(format!("unknown class {other:?} (vehicle|pedestrian|any)")),
    };
    let window = flags
        .checked("window", positive::<u32>, "--window wants a positive integer")?
        .unwrap_or(8);
    let k = flags.checked("k", positive::<usize>, "--k wants a positive integer")?.unwrap_or(10);
    let video = flags.checked("video", any::<u32>, "--video wants a video index")?;
    let track = flags.checked("track", any::<u32>, "--track wants a tracklet id")?.unwrap_or(0);
    let kind = flags.get("kind").unwrap_or("topk");
    let query = match kind {
        "count" => SemanticQuery::Count { class, video },
        "topk" => SemanticQuery::TopK { class, window, k },
        "similar" => SemanticQuery::Similar { track, k },
        other => return Err(format!("unknown kind {other:?} (count|topk|similar)")),
    };
    let repeat = flags
        .checked("repeat", positive::<usize>, "--repeat wants a positive integer")?
        .unwrap_or(5);
    let dataset = generate_dataset("generating dataset ...", GenConfig::default(), &hyper)?;

    // Acquire the index: load + validate a side-index file, build one
    // in memory, or skip entirely under --rescan. Unusable files fail
    // CLOSED into the rescan route — a warning, never a wrong answer.
    let index = if flags.has("rescan") {
        None
    } else {
        let path = flags.get("index");
        if path.is_none() {
            eprintln!("no --index given; ingesting in memory ...");
        }
        match (acquire_index(&dataset, path), path) {
            (Ok(index), _) => Some(index),
            (Err(Error::Io(e)), Some(path)) => {
                return Err(format!("cannot read side index {path}: {e}"));
            }
            (Err(e), Some(path)) => {
                eprintln!("warning: side index {path} unusable ({e}); falling back to full rescan");
                None
            }
            (Err(e), None) => return Err(e.to_string()),
        }
    };

    // Cost-based route decision, recorded for EXPLAIN. With no usable
    // index the IndexScan policy is not a candidate at all.
    let profile = load_profile(flags)?.unwrap_or_else(CalibrationProfile::builtin);
    let router = SemanticRouter::new(&dataset, index, profile);
    let plan = router.plan(&dataset, &format!("semantic/{}", query.kind()));
    if flags.has("explain") {
        print!("{}", plan.text);
    }

    let mut latencies_ns: Vec<u64> = Vec::with_capacity(repeat);
    let mut timed_answer = || {
        let t0 = Instant::now();
        let answer = plan.answer(&dataset, &query);
        latencies_ns.push(t0.elapsed().as_nanos() as u64);
        answer.map_err(|e| e.to_string())
    };
    // `repeat` is at least one: the first run supplies the answer.
    let mut answer = timed_answer()?;
    for _ in 1..repeat {
        answer = timed_answer()?;
    }
    latencies_ns.sort_unstable();
    let pct = |q: f64| -> f64 {
        let idx = ((latencies_ns.len() as f64 * q).ceil() as usize).saturating_sub(1);
        latencies_ns[idx.min(latencies_ns.len() - 1)] as f64 / 1000.0
    };
    let (p50_us, p95_us) = (pct(0.50), pct(0.95));
    let route = plan.route();

    // Top-k answers are graded against scene geometry, not against the
    // scan that produced them.
    let recall = match (&query, &answer) {
        (SemanticQuery::TopK { class, window, k }, SemanticAnswer::Segments(got)) => {
            let truth = truth_top_segments(&dataset, *class, *window).map_err(|e| e.to_string())?;
            Some(recall_at_k(&truth, got, *k))
        }
        _ => None,
    };

    println!(
        "kind={kind} route={route} repeat={repeat} p50_us={p50_us:.3} p95_us={p95_us:.3}{}",
        match recall {
            Some(r) => format!(" recall@{k}={r:.4}"),
            None => String::new(),
        }
    );
    println!("{}", answer.render());

    if let Some(path) = flags.get("out") {
        let doc = search_doc(kind, route, repeat, p50_us, p95_us, recall, &answer.render());
        write_creating_parent(path, "", doc)?;
        eprintln!("wrote {path}");
    }
    Ok(0)
}

/// Print the injected fault counts and `recovered`, the sum of the
/// run's report rows, then every [`fault::accounting_mismatches`]
/// line; nonzero on any mismatch.
fn verify_fault_accounting(inj: &FaultInjector, recovered: &DegradationSnapshot) -> i32 {
    let injected = inj.injected();
    println!(
        "fault accounting: injected {injected:?}\n\
         fault accounting: recovered {recovered:?}"
    );
    let bad = fault::accounting_mismatches(&injected, recovered);
    if bad.is_empty() {
        println!("fault accounting: OK");
        0
    } else {
        for b in &bad {
            eprintln!("fault accounting MISMATCH: {b}");
        }
        1
    }
}

/// One entry of `run --explain-out plans.json`: the plan document
/// `EXPLAIN` already rendered, spliced under the engine and query that
/// ran it.
fn explain_entry(engine: &str, query: &str, plan_json: &str) -> String {
    let mut w = Writer::new();
    w.object(Inline).member("engine", engine).member("query", query);
    w.key("plan").raw(plan_json.trim_end()).end();
    w.finish()
}

/// The `search --out` document `tests/cli.rs` reads back.
fn search_doc(
    kind: &str,
    route: &str,
    repeat: usize,
    p50_us: f64,
    p95_us: f64,
    recall: Option<f64>,
    answer: &str,
) -> String {
    let mut w = Writer::new();
    w.object(Inline).member("kind", kind).member("route", route).member("repeat", repeat);
    w.member("p50_us", Fixed(p50_us, 3)).member("p95_us", Fixed(p95_us, 3));
    if let Some(r) = recall {
        w.member("recall", Fixed(r, 6));
    }
    w.member("answer", answer).end().raw("\n");
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The flags named in `command`'s usage block: from its
    /// `visualroad <command>` line to the next blank line.
    fn usage_flags(usage: &str, command: &str) -> BTreeSet<String> {
        usage
            .lines()
            .skip_while(|l| l.split_whitespace().take(2).ne(["visualroad", command]))
            .take_while(|l| !l.is_empty())
            .flat_map(|l| l.split("--").skip(1))
            .map(|f| f.chars().take_while(|c| c.is_ascii_lowercase() || *c == '-').collect())
            .collect()
    }

    fn flags_of(command: &str) -> &'static [&'static str] {
        COMMANDS.iter().find(|(c, ..)| *c == command).unwrap().1
    }

    fn accepted(command: &str) -> BTreeSet<String> {
        flags_of(command).iter().map(|f| f.to_string()).collect()
    }

    #[test]
    fn each_usage_block_names_exactly_the_flags_its_command_accepts() {
        for (command, ..) in COMMANDS {
            assert_eq!(usage_flags(USAGE, command), accepted(command), "visualroad {command}");
        }
        let stale = USAGE.replacen("[--batch N]", "[--batch N] [--workers N]", 1);
        assert_ne!(usage_flags(&stale, "run"), accepted("run"), "a flag run does not read");
        let names: BTreeSet<_> = COMMANDS.iter().flat_map(|(_, flags, _)| flags.iter()).collect();
        assert_eq!(names.len(), 43, "distinct flag names");
    }

    #[test]
    fn a_flag_the_command_does_not_read_is_refused() {
        let parse = |command: &str, args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            Flags::parse(command, &args, flags_of(command)).map(|f| f.given)
        };
        let given = parse("run", &["--batch", "2", "--no-validate", "--seed=3"]).unwrap();
        let expected = [("batch", Some("2")), ("no-validate", None), ("seed", Some("3"))]
            .map(|(n, v)| (n.to_string(), v.map(str::to_string)));
        assert_eq!(given, expected);
        let refused = [
            ("presets", "scale"),
            ("run", "worker"),
            ("run", "workers"),
            ("serve", "drain-timeout-ms"),
            ("run", "serve-metrics"),
            ("run", "folded-out"),
            ("serve", "serve-metrics"),
        ];
        for (command, flag) in refused {
            let error = parse(command, &[&format!("--{flag}"), "4"]).unwrap_err();
            assert_eq!(error, format!("unknown flag --{flag} for {command}"));
        }
    }

    #[test]
    fn a_panic_kernel_query_fires_in_either_spelling_or_is_refused() {
        let plan = |spec: &str| {
            let args = ["--faults".to_string(), spec.to_string()];
            fault_plan(&Flags::parse("run", &args, flags_of("run")).unwrap())
        };
        let error = plan("panic_kernel=Q99:frame2").unwrap_err();
        assert_eq!(error, "--faults: panic_kernel names no query: \"q99\"");
        // Either spelling fires on the label the query's kernel runs under.
        for spec in ["panic_kernel=Q2(a):frame2", "panic_kernel=q2a:frame2"] {
            let inj = plan(spec).unwrap().unwrap();
            assert!(inj.kernel_panic_due(QueryKind::Q2aGrayscale.short_label(), 2), "{spec}");
        }
    }

    #[test]
    fn a_duration_or_density_out_of_range_is_refused() {
        let flags = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            Flags::parse("generate", &args, flags_of("generate")).unwrap()
        };
        for v in ["-1", "NaN", "inf", "x"] {
            let error = hyper_from(&flags(&["--duration", v])).unwrap_err();
            assert_eq!(error, "--duration wants a non-negative number of seconds");
        }
        assert_eq!(hyper_from(&flags(&["--duration", "0"])).unwrap().duration, Duration::ZERO);
        for v in ["NaN", "-3", "0", "inf"] {
            let error = gen_config(&flags(&["--density", v])).unwrap_err();
            assert_eq!(error, "--density wants a positive number");
        }
        assert_eq!(gen_config(&flags(&["--density", "0.5"])).unwrap().density_scale, 0.5);
    }

    /// Byte for byte what the inline `format!`s wrote (captured on the
    /// commit before `json::Writer`), and documents the strict parser
    /// accepts.
    #[test]
    fn explain_entry_and_search_document_are_pinned() {
        const ENTRY: &str = "{\"engine\": \"ref\\\"x\", \"query\": \"Q2(c)\", \"plan\": {\"op\": \"query\", \"children\": []}}";
        const SEARCH: &str = "{\"kind\": \"topk\", \"route\": \"index\", \"repeat\": 5, \"p50_us\": 12.346, \"p95_us\": 20.000, \"recall\": 0.900000, \"answer\": \"seg 1..2\\n\\\"x\\\"\"}\n";
        const NO_RECALL: &str = "{\"kind\": \"count\", \"route\": \"rescan\", \"repeat\": 1, \"p50_us\": 0.500, \"p95_us\": 0.500, \"answer\": \"count=3\"}\n";
        let plan = "{\"op\": \"query\", \"children\": []}\n";
        assert_eq!(explain_entry("ref\"x", "Q2(c)", plan), ENTRY);
        assert_eq!(search_doc("topk", "index", 5, 12.3456, 20.0, Some(0.9), "seg 1..2\n\"x\""), SEARCH);
        assert_eq!(search_doc("count", "rescan", 1, 0.5, 0.5, None, "count=3"), NO_RECALL);
        for doc in [ENTRY, SEARCH, NO_RECALL] {
            visual_road::base::json::parse(doc).unwrap();
        }
    }
}
