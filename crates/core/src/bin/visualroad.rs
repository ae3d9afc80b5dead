//! The `visualroad` command-line tool: generate datasets, run the
//! benchmark, and inspect results without writing Rust.
//!
//! ```text
//! visualroad presets
//! visualroad generate --scale 2 --res 192x108 --duration 1.0 --seed 7 --out /tmp/vr
//! visualroad run --engine functional --queries Q1,Q2a,Q2c --scale 1 --duration 0.5
//! visualroad run --engine all --full-suite --scale 1
//! ```

use std::sync::Arc;
use std::time::Instant;

use visual_road::base::fault::{self, FaultInjector};
use visual_road::base::json::{Fixed, Layout::Inline, Writer};
use visual_road::base::obs::serve::MetricsServer;
use visual_road::prelude::*;
use visual_road::storage::FlatStore;
use visual_road::vdbms::{CalibrationProfile, QueryKind};

/// Every subcommand returns its exit code, or the message of the error
/// that stopped it; `main` is the only place an error becomes an exit.
type Exit = Result<i32, String>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exit = match args.first().map(String::as_str) {
        Some("presets") => cmd_presets(),
        Some("generate") => cmd_generate(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("search") => cmd_search(&args[1..]),
        Some("calibrate") => cmd_calibrate(&args[1..]),
        _ => {
            print_usage();
            Ok(2)
        }
    };
    std::process::exit(exit.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        1
    }));
}

fn print_usage() {
    eprintln!(
        "visualroad — the Visual Road VDBMS benchmark

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
                 [--workers N] [--faults SPEC] [--fault-seed S]
                 [--deadline-ms N] [--trace-out FILE] [--metrics-out FILE]
                 [--explain | --explain-analyze] [--explain-out FILE]
                 [--folded-out FILE] [--serve-metrics PORT]
                 [--optimizer on|off|explain] [--profile FILE]
      Generate a dataset and drive the chosen engine(s) through the
      benchmark, printing the report. --workers caps both the driver's
      batch scheduler and each engine's pipelined executor (default:
      the VR_WORKERS environment variable, else all cores; 1 forces
      the sequential paths). --faults installs a deterministic fault
      plan (same grammar as the VR_FAULTS environment variable, e.g.
      corrupt_bitstream=0.01,drop_rtp=0.05,stall_stage=kernel:20ms,
      io_fail=read:0.02,panic_kernel=q4:frame37); after the run the
      injected-fault counts are checked against the recovery counters
      and any mismatch exits nonzero. --deadline-ms enforces a
      per-instance latency deadline via cooperative cancellation.
      --trace-out enables span tracing and writes a chrome-trace
      (trace_event JSON) profile loadable in chrome://tracing or
      Perfetto; the VR_TRACE environment variable (any value but 0)
      does the same. --metrics-out writes the process-global metrics
      registry (counters/gauges/latency histograms) as JSON, or as
      flat text when FILE ends in .txt. Tracing never changes query
      results: timestamps exist only in the exported profile.
      --explain prints each engine's plan tree per query and exits
      without executing anything; --explain-analyze executes, then
      annotates each plan node with wall/self time, frame/byte flow,
      and allocator-scope peak memory (alloc tracking is switched on
      for the run), exiting nonzero if any plan fails its self-time
      invariant. --explain-out also writes the plans to FILE (a JSON
      document when FILE ends in .json, text otherwise). --folded-out
      enables tracing and writes the span tree as collapsed stacks
      (flamegraph.pl / inferno input). --serve-metrics starts a
      loopback-bound read-only HTTP endpoint for the duration of the
      run (/metrics Prometheus text, /metrics.json, /healthz,
      /explain for the in-flight batch); PORT 0 picks an ephemeral
      port, printed on stderr. VR_ALLOC_TRACK=1 enables allocator
      scope tracking without --explain-analyze.
      --optimizer switches the cost-based optimizer: off (default)
      keeps every engine's hand-tuned plan choices; on lets the cost
      model pick execution policy, fan-out, and cascade order;
      explain additionally prints each chosen-vs-rejected plan table
      after the run. --profile loads a calibration profile written by
      `visualroad calibrate` (default: the built-in seed table);
      parse failures exit nonzero.

  visualroad serve [--port P] [--engine NAME|all] [--queries Q1,Q2a,...]
                   [--scale L] [--res WxH] [--duration SECS] [--seed S]
                   [--workers N] [--degraded-workers N]
                   [--max-concurrent N] [--queue-depth N] [--tenant-quota N]
                   [--degrade-load F] [--shed-load F]
                   [--breaker-trip N] [--breaker-cooldown-ms N]
                   [--deadline-ms N] [--drain-timeout-ms N]
                   [--faults SPEC] [--fault-seed S] [--serve-metrics PORT]
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
      HEALTH | SHUTDOWN) from concurrent sessions. Every request
      passes admission control: a bounded queue (--queue-depth) in
      front of --max-concurrent execution slots, per-tenant
      concurrency quotas (--tenant-quota), load shedding for
      low-priority work past the --degrade-load / --shed-load
      saturation thresholds (degraded requests run with
      --degraded-workers pipeline workers), and per-tenant circuit
      breakers (--breaker-trip consecutive failures open the breaker
      for --breaker-cooldown-ms, doubling per trip, half-open probe
      after). --deadline-ms is the default deadline for requests that
      carry none. SHUTDOWN (or stdin EOF) drains gracefully: stop
      admitting, flush in-flight work for up to --drain-timeout-ms,
      then exit 0 on a clean drain (1 otherwise), printing the final
      per-tenant admission accounting as JSON on stdout. --faults
      installs a deterministic fault plan for chaos serving;
      --serve-metrics additionally exposes the read-only metrics
      endpoint, whose admission.* series mirror the server's
      accounting. --use-index ingests a semantic side index at
      startup (--index FILE loads a prebuilt .vrsx instead; an
      unusable file falls back to rescan with a warning) and serves
      the semantic query class S1 (count) / S2 (top-k) / S3
      (similarity) from it; every OK response reports which route
      served it (route=index|rescan) and the per-tenant accounting
      splits index_served vs rescan_served. --qlog-out appends one
      structured JSON line per request (the query log) to FILE;
      --slow-query-ms captures a full EXPLAIN ANALYZE exemplar inline
      in the log for requests at or over the threshold. --slo sets
      per-priority latency objectives (milliseconds) for the
      per-tenant SLO tracker: the final STATS gains an `slo` block,
      and with --serve-metrics the endpoint serves /slo (burn rates)
      and /requests (recent query-log records).

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
QUERIES: Q1 Q2a Q2b Q2c Q2d Q3 Q4 Q5 Q6a Q6b Q7 Q8 Q9 Q10"
    );
}

/// Tiny flag parser: `--name value` / `--name=value` pairs plus
/// boolean flags.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("unexpected argument {flag:?}"));
            };
            if let Some((name, value)) = name.split_once('=') {
                out.push((name.to_string(), Some(value.to_string())));
                continue;
            }
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => Some(it.next().unwrap().clone()),
                _ => None,
            };
            out.push((name.to_string(), value));
        }
        Ok(Self(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
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
    let duration = Duration::from_secs(flags.parsed("duration", 1.0f64)?);
    let seed = flags.parsed("seed", 0u64)?;
    Hyperparameters::new(scale, res, duration, seed).map_err(|e| e.to_string())
}

/// `--density` / `--nodes`, for the two commands whose product is the
/// dataset itself (`generate`, `ingest`).
fn gen_config(flags: &Flags) -> Result<GenConfig, String> {
    Ok(GenConfig {
        density_scale: flags.parsed("density", 0.15f64)?,
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

/// Install the fault plan — `--faults SPEC [--fault-seed S]`, else the
/// `VR_FAULTS` environment — and announce it. Callers do this only
/// after dataset generation, so chaos runs exercise the query path
/// against a pristine dataset.
fn install_fault_plan(flags: &Flags) -> Result<Option<Arc<FaultInjector>>, String> {
    let injector = match flags.get("faults") {
        Some(spec) => {
            let seed = flags.parsed("fault-seed", 0u64)?;
            let inj = Arc::new(FaultInjector::from_spec(spec, seed).map_err(|e| e.to_string())?);
            fault::install(Some(Arc::clone(&inj)));
            Some(inj)
        }
        None => fault::init_from_env().map_err(|e| e.to_string())?,
    };
    if let Some(inj) = &injector {
        eprintln!("fault plan active (seed {}): {:?}", inj.seed(), inj.plan());
    }
    Ok(injector)
}

/// `--serve-metrics PORT`: the loopback, read-only metrics endpoint.
/// It serves registry snapshots and must never perturb results
/// (`tests/cli.rs` diffs a served vs. unserved run byte for byte).
fn start_metrics_endpoint(flags: &Flags) -> Result<Option<MetricsServer>, String> {
    let complaint = "--serve-metrics wants a port number (0 = ephemeral)";
    let Some(port) = flags.checked("serve-metrics", any::<u16>, complaint)? else {
        return Ok(None);
    };
    let server =
        MetricsServer::start(port).map_err(|e| format!("cannot bind metrics endpoint: {e}"))?;
    eprintln!("serving metrics on http://{}", server.addr());
    Ok(Some(server))
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

/// Write the process-global metrics registry to `path`: flat text when
/// it ends in `.txt`, JSON otherwise.
fn write_metrics_snapshot(path: &str) -> Result<(), String> {
    let snap = vr_base::obs::metrics::snapshot();
    let body = if path.ends_with(".txt") { snap.to_text() } else { snap.to_json() };
    std::fs::write(path, body).map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    eprintln!("wrote metrics snapshot to {path}");
    Ok(())
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

fn cmd_presets() -> Exit {
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

fn cmd_generate(args: &[String]) -> Exit {
    let flags = Flags::parse(args)?;
    let hyper = hyper_from(&flags)?;
    let cfg = gen_config(&flags)?;
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

fn cmd_run(args: &[String]) -> Exit {
    let flags = Flags::parse(args)?;
    let hyper = hyper_from(&flags)?;
    let queries = parse_queries(&flags)?;
    let mut engines = engines_from(flags.get("engine").unwrap_or("reference"))?;
    let dataset = generate_dataset("generating dataset ...", GenConfig::default(), &hyper)?;

    let mut cfg = VcdConfig {
        validate: !flags.has("no-validate"),
        batch_size: flags.checked("batch", any::<usize>, "--batch wants a number")?,
        ..Default::default()
    };
    if let Some(speedup) = flags.checked("online", any::<f64>, "--online wants a speedup factor")? {
        cfg.mode = ExecutionMode::Online { speedup };
    }
    if let Some(dir) = flags.get("write") {
        cfg.write_store = Some(FlatStore::open(dir).map_err(|e| e.to_string())?);
    }
    let workers =
        flags.checked("workers", positive::<usize>, "--workers wants a positive integer")?;
    cfg.pipeline_workers = workers;
    cfg.batch_workers = workers;
    cfg.instance_deadline = flags
        .checked("deadline-ms", positive::<u64>, "--deadline-ms wants a positive integer")?
        .map(std::time::Duration::from_millis);
    // Allocator scope tracking: VR_ALLOC_TRACK, or implied by
    // --explain-analyze (whose plan nodes report peak memory).
    vr_base::obs::alloc::init_from_env();
    let explain_only = flags.has("explain");
    if flags.has("explain-analyze") {
        cfg.explain = visual_road::ExplainMode::Analyze;
        vr_base::obs::alloc::set_tracking(true);
    }
    if let Some(mode) = flags.get("optimizer") {
        cfg.optimizer = mode.parse()?;
    }
    cfg.profile = load_profile(&flags)?;
    let optimizer_mode = cfg.optimizer;

    let injector = install_fault_plan(&flags)?;

    // Tracing is opt-in: `--trace-out FILE`, or VR_TRACE as the
    // destination path (any value but empty/0; `VR_TRACE=1` defaults
    // to trace.json). Enabled only after dataset generation so the
    // profile covers the query path, not the generator.
    let trace_out: Option<String> = flags
        .get("trace-out")
        .map(str::to_string)
        .or_else(|| match std::env::var("VR_TRACE").ok().filter(|v| !v.is_empty() && v != "0") {
            Some(v) if v == "1" => Some("trace.json".to_string()),
            other => other,
        });
    // Collapsed-stacks export folds the span buffer, so it implies
    // tracing even without a chrome-trace destination.
    let folded_out: Option<String> = flags.get("folded-out").map(str::to_string);
    if trace_out.is_some() || folded_out.is_some() {
        vr_base::obs::trace::set_enabled(true);
    }

    let server = start_metrics_endpoint(&flags)?;
    let vcd = Vcd::new(&dataset, cfg);

    // EXPLAIN without execution: print (and optionally save) each
    // engine's plan per query, then exit.
    if explain_only {
        let mut doc = String::new();
        for engine in &engines {
            for (kind, text) in vcd.explain(engine.as_ref(), &queries).map_err(|e| e.to_string())? {
                doc.push_str(&format!("== {} {} ==\n{text}", engine.name(), kind.label()));
            }
        }
        print!("{doc}");
        write_plans(&flags, |_| doc)?;
        return Ok(0);
    }

    let mut explain_doc = String::new();
    let mut explain_json: Vec<String> = Vec::new();
    let mut explain_violations = 0usize;
    for engine in engines.iter_mut() {
        let report = vcd.run_queries(engine.as_mut(), &queries).map_err(|e| e.to_string())?;
        println!("{report}");
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
    // `--optimizer explain`: dump every cached chosen-vs-rejected
    // table after the reports, one block per engine/query key.
    if optimizer_mode == visual_road::vdbms::OptimizerMode::Explain {
        if let Some(opt) = vcd.optimizer() {
            for decision in opt.decisions() {
                println!("== optimizer {} ==", decision.key);
                print!("{}", decision.render_text());
            }
        }
    }
    write_plans(&flags, |path| {
        if path.ends_with(".json") {
            format!("[{}]\n", explain_json.join(",\n "))
        } else {
            explain_doc
        }
    })?;

    if trace_out.is_some() || folded_out.is_some() {
        vr_base::obs::trace::set_enabled(false);
    }
    // Both exports copy the span buffer; neither drains it.
    if let Some(path) = &folded_out {
        let n = vr_base::obs::folded::save(path)
            .map_err(|e| format!("cannot write folded stacks to {path}: {e}"))?;
        eprintln!("wrote {n} folded stacks to {path}");
    }
    if let Some(path) = &trace_out {
        let n = vr_base::obs::trace::save(path)
            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        eprintln!("wrote {n} trace events to {path}");
    }
    if let Some(path) = flags.get("metrics-out") {
        write_metrics_snapshot(path)?;
    }

    // Stop the endpoint before verdicts so nothing polls a dead run.
    drop(server);
    let fault_code = injector.as_deref().map_or(0, verify_fault_accounting);
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
fn cmd_serve(args: &[String]) -> Exit {
    use std::time::Duration;
    use visual_road::base::admission::AdmissionConfig;
    use visual_road::base::obs::slo::SloConfig;
    use visual_road::server::{QueryServer, ServerConfig};

    let flags = Flags::parse(args)?;
    let hyper = hyper_from(&flags)?;
    let queries = parse_queries(&flags)?;
    let engines = engines_from(flags.get("engine").unwrap_or("batch"))?;

    let count = |name: &str| {
        flags.checked(name, positive::<usize>, &format!("--{name} wants a positive integer"))
    };
    let load = |name: &str| {
        let complaint = format!("--{name} wants a positive saturation fraction");
        flags.checked(name, |&f: &f64| f > 0.0, &complaint)
    };
    let millis = |name: &str, ok: fn(&u64) -> bool, wants: &str| {
        flags
            .checked(name, ok, &format!("--{name} wants {wants}"))
            .map(|ms| ms.map(Duration::from_millis))
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
        breaker_trip: flags
            .checked("breaker-trip", positive::<u32>, "--breaker-trip wants a positive integer")?
            .unwrap_or(defaults.breaker_trip),
        breaker_cooldown: millis("breaker-cooldown-ms", any, "an integer")?
            .unwrap_or(defaults.breaker_cooldown),
    };
    let cfg = ServerConfig {
        port: flags
            .checked("port", any::<u16>, "--port wants a port number (0 = ephemeral)")?
            .unwrap_or(0),
        admission,
        workers: count("workers")?.unwrap_or_else(vr_base::sync::worker_budget),
        degraded_workers: count("degraded-workers")?.unwrap_or(1),
        default_deadline: millis("deadline-ms", positive, "a positive integer")?,
        drain_timeout: millis("drain-timeout-ms", any, "an integer")?
            .unwrap_or(Duration::from_secs(10)),
        queries,
        use_index: flags.has("use-index"),
        index_path: flags.get("index").map(str::to_string),
        qlog_path: flags.get("qlog-out").map(str::to_string),
        slow_query: millis("slow-query-ms", positive, "a positive integer")?,
        slo: match flags.get("slo") {
            Some(spec) => SloConfig::parse(spec).map_err(|e| format!("--slo: {e}"))?,
            None => SloConfig::default(),
        },
    };

    let dataset = generate_dataset("generating dataset ...", GenConfig::default(), &hyper)?;
    install_fault_plan(&flags)?;
    let metrics_server = start_metrics_endpoint(&flags)?;

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
    if let Some(ms) = metrics_server {
        ms.stop();
    }
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
/// JSON. Scheduling constants (thread spawn, parallel efficiency,
/// gate cost) keep their built-in seeds — they need contended
/// multi-core probes this single pass cannot provide.
fn cmd_calibrate(args: &[String]) -> Exit {
    use visual_road::vdbms::{PipelineSnapshot, StageKind, StageSnapshot};
    let flags = Flags::parse(args)?;
    let hyper = hyper_from(&flags)?;
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
    // A refreshed profile restarts the feedback loop from scratch.
    profile.samples = 0;
    profile.observed_error = 0.0;
    profile.scale = 1.0;

    write_creating_parent(out, "profile to ", profile.to_json())?;
    eprintln!("wrote calibration profile to {out}");
    print!("{}", profile.to_json());
    Ok(0)
}

/// `visualroad ingest`: the ingest-once pass. Generate the dataset,
/// scan its metadata box tracks, and persist the tracklet side index.
fn cmd_ingest(args: &[String]) -> Exit {
    use visual_road::semantic::{ingest_dataset, IngestStats};
    let flags = Flags::parse(args)?;
    let hyper = hyper_from(&flags)?;
    let cfg = gen_config(&flags)?;
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
fn cmd_search(args: &[String]) -> Exit {
    use visual_road::base::Error;
    use visual_road::scene::entity::ObjectClass;
    use visual_road::semantic::{
        acquire_index, recall_at_k, truth_top_segments, SemanticAnswer, SemanticQuery,
        SemanticRouter,
    };

    let flags = Flags::parse(args)?;
    let hyper = hyper_from(&flags)?;
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
    let profile = load_profile(&flags)?.unwrap_or_else(CalibrationProfile::builtin);
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

/// Print the injected and recovered fault counts, then every
/// [`fault::accounting_mismatches`] line; nonzero on any mismatch.
fn verify_fault_accounting(inj: &FaultInjector) -> i32 {
    let injected = inj.injected();
    let recovered = fault::degradation_snapshot();
    println!(
        "fault accounting: injected {injected:?}\n\
         fault accounting: recovered {recovered:?}"
    );
    let bad = fault::accounting_mismatches(&injected, &recovered);
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
