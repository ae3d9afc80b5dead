//! A dependency-free micro-benchmark harness (the criterion
//! replacement).
//!
//! The four `benches/*.rs` targets keep their `harness = false`
//! `[[bench]]` wiring and their criterion-era shape — a `Criterion`
//! context, `benchmark_group`, `bench_function`, `Bencher::iter` — but
//! all timing is `std::time::Instant`.
//!
//! Cargo invokes bench binaries in two ways: `cargo bench` passes
//! `--bench` and expects full measurements; `cargo test` passes
//! `--test` and expects a fast smoke run. The harness honors both: in
//! test mode each benchmark body executes exactly once (proving it
//! still runs) and no statistics are reported.
//!
//! Measured runs can additionally be persisted machine-readably:
//! `--save-json <path>` (or [`main_with_json`]'s default path) writes
//! every benchmark's median/mean/min nanoseconds and throughput, the
//! format `bench_gate` compares against a committed baseline in CI.

use std::time::{Duration, Instant};
use vr_base::json::{Fixed, Layout::{Block, Inline}, Writer};

/// One benchmark's folded measurements, as persisted by `--save-json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// `group/function` id.
    pub id: String,
    pub median_ns: u128,
    pub mean_ns: u128,
    pub min_ns: u128,
    /// Timed samples folded into the statistics.
    pub samples: usize,
    /// Elements per second at the median, when the group declared a
    /// [`Throughput`].
    pub throughput_eps: Option<f64>,
    /// The plan the engine ran for this benchmark (optimizer label),
    /// when the bench declared one via [`Group::plan`]. Persisted so
    /// `bench_gate` can surface plan flips next to timing deltas.
    pub plan: Option<String>,
}

/// Measurement configuration plus the CLI-selected mode.
pub struct Criterion {
    test_mode: bool,
    /// Optional substring filter (first free CLI argument).
    filter: Option<String>,
    /// Where to persist machine-readable results (`--save-json`).
    save_json: Option<String>,
    /// Results recorded by measured (non-test-mode) runs.
    results: Vec<BenchResult>,
}

/// Throughput annotation for a benchmark group (elements per
/// iteration; reported as elements/second).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The number of logical elements (e.g. pixels) one iteration
    /// processes.
    Elements(u64),
}

impl Criterion {
    /// Build from the process arguments cargo passed to the bench
    /// binary.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse a bench binary's CLI. Only free (non-dash) arguments are
    /// filters; `--flag value` pairs for flags this harness does not
    /// know are skipped *with* their value, so e.g. cargo's
    /// `--logfile out.txt` never turns `out.txt` into a filter that
    /// silently deselects every benchmark.
    fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut test_mode = false;
        let mut filter = None;
        let mut save_json = None;
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--test" => test_mode = true,
                "--save-json" => save_json = args.next(),
                // Known boolean flags (cargo / libtest pass-throughs):
                // nothing to consume after them.
                "--bench" | "--exact" | "--ignored" | "--include-ignored" | "--list"
                | "--nocapture" | "--quiet" | "-q" | "--show-output" => {}
                s if s.starts_with("--") => {
                    // Unknown option: `--flag=value` is self-contained;
                    // otherwise the next non-dash argument is its
                    // value, not a filter.
                    if !s.contains('=') && args.peek().is_some_and(|n| !n.starts_with('-')) {
                        let _ = args.next();
                    }
                }
                s if s.starts_with('-') => {}
                s if filter.is_none() => filter = Some(s.to_string()),
                _ => {}
            }
        }
        Self { test_mode, filter, save_json, results: Vec::new() }
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group<'_> {
        Group {
            c: self,
            name: name.into(),
            sample_size: 10,
            throughput: None,
            plan: None,
        }
    }

    /// Results recorded so far (empty in test mode).
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Persist recorded results as JSON. No-op in test mode (a smoke
    /// run measures nothing worth comparing against a baseline).
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        if self.test_mode {
            return Ok(());
        }
        std::fs::write(path, render_json(&self.results, &stage_quantiles()))?;
        println!("wrote {} benchmark results to {path}", self.results.len());
        Ok(())
    }
}

/// One pipeline stage's latency quantiles, pulled from the global
/// metrics registry after the benchmarks have run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageQuantiles {
    pub stage: String,
    pub count: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

/// Per-stage latency quantiles accumulated by the benchmarks just run.
/// Engine benchmarks drive `vr-vdbms` pipelines, whose stage spans
/// feed `stage.<name>.nanos` histograms in the global registry; other
/// bench targets simply report no stages.
fn stage_quantiles() -> Vec<StageQuantiles> {
    let snapshot = vr_base::obs::metrics::snapshot();
    snapshot
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            let stage = name.strip_prefix("stage.")?.strip_suffix(".nanos")?;
            (h.count > 0).then(|| StageQuantiles {
                stage: stage.to_string(),
                count: h.count,
                p50_ns: h.p50(),
                p95_ns: h.p95(),
                p99_ns: h.p99(),
            })
        })
        .collect()
}

/// Render results in the schema `bench_gate` consumes. The `stages`
/// section is informational: `bench_gate` surfaces the p95 columns but
/// never fails on them, and its baseline-seeding rebuild (which keeps
/// only `{"id":` lines) drops the section from committed baselines.
fn render_json(results: &[BenchResult], stages: &[StageQuantiles]) -> String {
    let mut w = Writer::new();
    w.object(Block).key("benchmarks").array(Block);
    for r in results {
        // One result per line, `plan` included, so that rebuild
        // preserves plan labels in committed baselines.
        w.object(Inline).member("id", &r.id).member("median_ns", r.median_ns as u64);
        w.member("mean_ns", r.mean_ns as u64).member("min_ns", r.min_ns as u64);
        w.member("samples", r.samples);
        w.member("throughput_eps", r.throughput_eps.map(|t| Fixed(t, 3)));
        if let Some(plan) = &r.plan {
            w.member("plan", plan);
        }
        w.end();
    }
    w.end().key("stages").object(Block);
    for s in stages {
        w.key(&s.stage).object(Inline).member("count", s.count).member("p50_ns", s.p50_ns);
        w.member("p95_ns", s.p95_ns).member("p99_ns", s.p99_ns).end();
    }
    w.end().end();
    w.finish()
}

/// A group of related benchmarks sharing a name prefix and settings.
pub struct Group<'a> {
    c: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    plan: Option<String>,
}

impl Group<'_> {
    /// Number of timed samples per benchmark (default 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Annotate the group with per-iteration throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Record the plan label the *next* `bench_function` call runs
    /// with (consumed by that call, so per-bench labels don't leak
    /// into their group neighbours).
    pub fn plan(&mut self, label: impl Into<String>) -> &mut Self {
        self.plan = Some(label.into());
        self
    }

    /// Run one benchmark.
    pub fn bench_function(
        &mut self,
        name: impl AsRef<str>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, name.as_ref());
        let plan = self.plan.take();
        if let Some(filter) = &self.c.filter {
            if !id.contains(filter.as_str()) {
                return self;
            }
        }
        let mut b = Bencher {
            samples: Vec::new(),
            target_samples: self.sample_size,
            test_mode: self.c.test_mode,
        };
        f(&mut b);
        if self.c.test_mode {
            println!("test {id} ... ok");
            return self;
        }
        let mut ns: Vec<u128> = b.samples.iter().map(|d| d.as_nanos()).collect();
        ns.sort_unstable();
        if ns.is_empty() {
            println!("{id:<50} (no samples)");
            return self;
        }
        let median = ns[ns.len() / 2];
        let mean: u128 = ns.iter().sum::<u128>() / ns.len() as u128;
        let throughput_eps = match self.throughput {
            Some(Throughput::Elements(e)) if median > 0 => {
                Some(e as f64 * 1e9 / median as f64)
            }
            _ => None,
        };
        let mut line = format!(
            "{id:<50} median {} (min {}, mean {}, {} samples)",
            fmt_ns(median),
            fmt_ns(ns[0]),
            fmt_ns(mean),
            ns.len()
        );
        if let Some(per_sec) = throughput_eps {
            line.push_str(&format!(", {:.1} Melem/s", per_sec / 1e6));
        }
        println!("{line}");
        self.c.results.push(BenchResult {
            id,
            median_ns: median,
            mean_ns: mean,
            min_ns: ns[0],
            samples: ns.len(),
            throughput_eps,
            plan,
        });
        self
    }

    /// End the group (kept for criterion API parity).
    pub fn finish(&mut self) {}
}

/// Passed to each benchmark body; times the closure handed to
/// [`iter`](Bencher::iter).
pub struct Bencher {
    samples: Vec<Duration>,
    target_samples: usize,
    test_mode: bool,
}

impl Bencher {
    /// Run the routine: once in test mode, `sample_size` timed
    /// iterations (after one untimed warm-up) otherwise.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        if self.test_mode {
            std::hint::black_box(routine());
            return;
        }
        // Warm-up iteration: first-touch allocation and caches.
        std::hint::black_box(routine());
        for _ in 0..self.target_samples {
            let t0 = Instant::now();
            std::hint::black_box(routine());
            self.samples.push(t0.elapsed());
        }
    }
}

/// Entry point for a `harness = false` bench target: run every
/// registered bench function with a [`Criterion`] built from the CLI.
pub fn main(benches: &[fn(&mut Criterion)]) {
    let mut c = Criterion::from_args();
    for bench in benches {
        bench(&mut c);
    }
    if let Some(path) = c.save_json.clone() {
        c.write_json(&path).expect("write bench results");
    }
}

/// Like [`main`], but measured runs always persist JSON results —
/// to `--save-json <path>` when given, else to `default_json_path`.
pub fn main_with_json(benches: &[fn(&mut Criterion)], default_json_path: &str) {
    let mut c = Criterion::from_args();
    for bench in benches {
        bench(&mut c);
    }
    let path =
        c.save_json.clone().unwrap_or_else(|| default_json_path.to_string());
    c.write_json(&path).expect("write bench results");
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn criterion(test_mode: bool, filter: Option<&str>) -> Criterion {
        Criterion {
            test_mode,
            filter: filter.map(String::from),
            save_json: None,
            results: Vec::new(),
        }
    }

    #[test]
    fn bencher_times_iterations() {
        let mut b = Bencher { samples: Vec::new(), target_samples: 10, test_mode: false };
        let mut runs = 0u32;
        b.iter(|| {
            runs += 1;
            runs
        });
        // One warm-up + ten timed samples.
        assert_eq!(runs, 11);
        assert_eq!(b.samples.len(), 10);
    }

    #[test]
    fn test_mode_runs_once() {
        let mut b = Bencher { samples: Vec::new(), target_samples: 10, test_mode: true };
        let mut runs = 0u32;
        b.iter(|| runs += 1);
        assert_eq!(runs, 1);
        assert!(b.samples.is_empty());
    }

    #[test]
    fn groups_respect_filters() {
        let mut c = criterion(true, Some("match-me"));
        let mut hit = 0;
        let mut g = c.benchmark_group("g");
        g.bench_function("match-me", |b| b.iter(|| hit += 1));
        g.bench_function("skip-me", |b| b.iter(|| hit += 100));
        g.finish();
        assert_eq!(hit, 1);
    }

    #[test]
    fn measured_runs_record_results() {
        let mut c = criterion(false, None);
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(3).throughput(Throughput::Elements(1000));
            g.bench_function("work", |b| b.iter(|| std::hint::black_box(7 * 6)));
            g.finish();
        }
        let results = c.results();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].id, "g/work");
        assert_eq!(results[0].samples, 3);
        assert!(results[0].min_ns <= results[0].median_ns);
    }

    #[test]
    fn plan_labels_attach_to_the_next_bench_only() {
        let mut c = criterion(false, None);
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(2);
            g.plan("eager workers=1");
            g.bench_function("a", |b| b.iter(|| std::hint::black_box(1)));
            g.bench_function("b", |b| b.iter(|| std::hint::black_box(2)));
            g.finish();
        }
        assert_eq!(c.results()[0].plan.as_deref(), Some("eager workers=1"));
        assert_eq!(c.results()[1].plan, None);
    }

    fn result(id: &str, throughput_eps: Option<f64>, plan: Option<&str>) -> BenchResult {
        BenchResult {
            id: id.into(),
            median_ns: 1_234_567,
            mean_ns: 1_300_000,
            min_ns: 1_200_000,
            samples: 10,
            throughput_eps,
            plan: plan.map(str::to_string),
        }
    }

    /// With and without `stages` / `plan` / `throughput_eps`, byte for
    /// byte what the hand-rolled renderer wrote (captured on the
    /// commit before `json::Writer`) and what `bench_gate` parses.
    #[test]
    fn render_json_is_pinned() {
        const FULL: &str = "{\n  \"benchmarks\": [\n    {\"id\": \"engines/q1\", \"median_ns\": 1234567, \"mean_ns\": 1300000, \"min_ns\": 1200000, \"samples\": 10, \"throughput_eps\": null},\n    {\"id\": \"optimizer/q1\", \"median_ns\": 1234567, \"mean_ns\": 1300000, \"min_ns\": 1200000, \"samples\": 10, \"throughput_eps\": null, \"plan\": \"eager workers=4\"},\n    {\"id\": \"index/build\", \"median_ns\": 1234567, \"mean_ns\": 1300000, \"min_ns\": 1200000, \"samples\": 10, \"throughput_eps\": 30843.509}\n  ],\n  \"stages\": {\n    \"decode\": {\"count\": 4, \"p50_ns\": 100, \"p95_ns\": 200, \"p99_ns\": 300},\n    \"kernel\": {\"count\": 4, \"p50_ns\": 100, \"p95_ns\": 200, \"p99_ns\": 300}\n  }\n}\n";
        const NO_STAGES: &str = "{\n  \"benchmarks\": [\n    {\"id\": \"engines/q1\", \"median_ns\": 1234567, \"mean_ns\": 1300000, \"min_ns\": 1200000, \"samples\": 10, \"throughput_eps\": null}\n  ],\n  \"stages\": {}\n}\n";
        let results = [
            result("engines/q1", None, None),
            result("optimizer/q1", None, Some("eager workers=4")),
            result("index/build", Some(30843.5094), None),
        ];
        let stage = |stage: &str| StageQuantiles {
            stage: stage.into(),
            count: 4,
            p50_ns: 100,
            p95_ns: 200,
            p99_ns: 300,
        };
        assert_eq!(render_json(&results, &[stage("decode"), stage("kernel")]), FULL);
        assert_eq!(render_json(&results[..1], &[]), NO_STAGES);
        // No results: the captured bytes had `[\n  ]` here; an empty
        // block is now `[]`, as `"stages": {}` always was.
        assert_eq!(render_json(&[], &[]), "{\n  \"benchmarks\": [],\n  \"stages\": {}\n}\n");
        for doc in [FULL, NO_STAGES] {
            vr_base::json::parse(doc).unwrap();
        }
    }

    /// The hand-rolled renderer escaped only `\\` and `"` in `id` and
    /// `plan` and nothing in a stage name, so these did not read back.
    #[test]
    fn ids_plans_and_stage_names_read_back_whatever_they_hold() {
        let (id, plan, stage) = ("g/new\nline \u{1}", "eager \"quoted\" \\ \t", "ker\"nel\n");
        let quantiles =
            StageQuantiles { stage: stage.into(), count: 1, p50_ns: 1, p95_ns: 1, p99_ns: 1 };
        let doc = vr_base::json::parse(&render_json(&[result(id, None, Some(plan))], &[quantiles]))
            .expect("control characters are escaped");
        let bench = &doc.get("benchmarks").unwrap().as_array().unwrap()[0];
        assert_eq!(bench.get("id").unwrap().as_str(), Some(id));
        assert_eq!(bench.get("plan").unwrap().as_str(), Some(plan));
        assert!(doc.get("stages").unwrap().get(stage).is_some());
    }

    #[test]
    fn arg_parsing_distinguishes_flags_values_and_filters() {
        let parse = |args: &[&str]| {
            Criterion::parse(args.iter().map(|s| s.to_string()))
        };
        // The criterion-era bug: an unknown flag's value became the
        // filter and deselected everything.
        let c = parse(&["--bench", "--logfile", "out.txt"]);
        assert_eq!(c.filter, None);
        // ... while a genuine free argument still filters.
        let c = parse(&["--bench", "q1"]);
        assert_eq!(c.filter.as_deref(), Some("q1"));
        // Known boolean flags never swallow the filter after them.
        let c = parse(&["--test", "--nocapture", "q2"]);
        assert!(c.test_mode);
        assert_eq!(c.filter.as_deref(), Some("q2"));
        // `--flag=value` is self-contained.
        let c = parse(&["--logfile=out.txt", "q3"]);
        assert_eq!(c.filter.as_deref(), Some("q3"));
        // An unknown flag followed by another flag consumes nothing.
        let c = parse(&["--color", "--test"]);
        assert!(c.test_mode);
        // --save-json takes its path operand.
        let c = parse(&["--save-json", "results.json", "q4"]);
        assert_eq!(c.save_json.as_deref(), Some("results.json"));
        assert_eq!(c.filter.as_deref(), Some("q4"));
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(1_500), "1.500 µs");
        assert_eq!(fmt_ns(2_500_000), "2.500 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000 s");
    }
}
