//! One-of-each guards over the repository tree: no registry
//! dependency in any manifest, one scoped-thread executor in
//! `pipeline.rs`, one JSON escaper, no channel but std's, one panic
//! payload reader, one video-track resolver and one sample→frame
//! loop, no scan drained under `vdbms/src`, no plan built on a policy
//! no engine runs, one socket bound (the query server's listener),
//! full-frame kernels that walk plane rows instead of reading pixels
//! through `Frame`, `unsafe` refused by every crate root, two
//! `VR_*` environment variables, a `ci.sh` that stays a stage table,
//! and one build setting in `.cargo/config.toml`. Each guard is a
//! function over text, shown failing on a bad input below.

use std::path::{Path, PathBuf};

/// Registry crates this std-only workspace must never declare
/// (`crossbeam` covers every `crossbeam-*` crate).
const REGISTRY_CRATES: [&str; 5] = ["rand", "crossbeam", "parking_lot", "proptest", "criterion"];

/// The most lines `ci.sh` may have: it runs stages, tests hold the
/// checks.
const CI_MAX_LINES: usize = 150;

/// The lines of a manifest that declare a registry crate (`name = ...`
/// only, so prose in comments never matches).
fn registry_dependencies(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .filter(|line| {
            let Some((name, _)) = line.split_once('=') else {
                return false;
            };
            let name = name.trim();
            REGISTRY_CRATES.iter().any(|&c| {
                name == c
                    || (c == "crossbeam"
                        && name.strip_prefix(c).is_some_and(|rest| {
                            rest.bytes().all(|b| b.is_ascii_lowercase() || b == b'_' || b == b'-')
                        }))
            })
        })
        .collect()
}

/// The code of a source above its inline test module
/// ([`vr_bench::loc::split_tests`]): a `#[cfg(test)]` item higher up
/// (a test-only `use`, an oracle) hides nothing below it.
fn code(src: &str) -> &str {
    vr_bench::loc::split_tests(src).0
}

/// `std::thread::scope` lines above the test module.
fn scopes_above_tests(src: &str) -> usize {
    code(src).lines().filter(|l| l.contains("std::thread::scope")).count()
}

/// Whether a source brings its own JSON escaper: the old helper's name
/// or a chain that replaces `"` with `\"`. Both patterns are assembled
/// here so this file does not match itself.
fn brings_own_escaper(src: &str) -> bool {
    let helper = ["json", "escape"].join("_");
    let chain = [".replace('", "\"', \"", "\\\\", "\\\"\")"].concat();
    src.contains(&helper) || src.contains(&chain)
}

/// Whether a source defines a channel of its own: a `channel`
/// constructor or a `Sender`/`Receiver` type. Bounded channels are
/// `std::sync::mpsc::sync_channel`. The patterns are assembled here so
/// this file does not match itself.
fn defines_channel(src: &str) -> bool {
    let patterns = [
        ["fn channel", "<"].concat(),
        ["struct ", "Sender"].concat(),
        ["struct ", "Receiver"].concat(),
    ];
    patterns.iter().any(|p| src.contains(p.as_str()))
}

/// Whether a source reads a panic payload (a `downcast_ref` to
/// `&str`) above its test module: only `vr_base::sync::panic_message`
/// may. The pattern is assembled here so this file does not match
/// itself.
fn reads_panic_payload(src: &str) -> bool {
    let reader = ["downcast_ref::<", "&str>"].concat();
    code(src).lines().any(|l| l.contains(&reader))
}

/// Lines above a source's test module that bind a TCP listener or a
/// UDP socket. Under `crates/*/src` only the query server's listener
/// may: every other view of a run is a file or a wire verb. The
/// patterns are assembled here so this file does not match itself.
fn binds_listener(src: &str) -> usize {
    let binds = [["TcpListener", "::bind("].concat(), ["UdpSocket", "::bind("].concat()];
    code(src).lines().filter(|l| binds.iter().any(|b| l.contains(b.as_str()))).count()
}

/// The only environment variables the crates read: the worker budget
/// and allocator tracking. Every other setting is a flag or a constant.
const ENV_VARS: [&str; 2] = ["VR_ALLOC_TRACK", "VR_WORKERS"];

/// The `VR_*` names a source reads through `env::var` above its test
/// module. The pattern is assembled here so this file does not match
/// itself.
fn env_vars_read(src: &str) -> Vec<&str> {
    let getter = ["env::var", "(\""].concat();
    let getter = getter.as_str();
    code(src)
        .lines()
        .flat_map(|l| l.split(getter).skip(1))
        .filter_map(|rest| rest.split('"').next())
        .filter(|name| name.starts_with("VR_"))
        .collect()
}

/// Lines above the test module that look up a video track: only
/// `InputVideo::video_track` in `vdbms/src/io.rs` may. The pattern is
/// assembled here so this file does not match itself.
fn resolves_video_track(src: &str) -> usize {
    let lookup = ["track_of_kind(", "TrackKind::Video)"].concat();
    code(src).lines().filter(|l| l.contains(&lookup)).count()
}

/// Lines above the test module that open a sample decoder.
/// `SampleDecoder` is private to `vdbms/src/kernels.rs`, so the
/// compiler refuses one anywhere else; inside that file exactly one
/// line may open one — `FrameStream`'s constructor, the one
/// sample→frame loop. The pattern is assembled here so this file does
/// not match itself.
fn opens_sample_decoder(src: &str) -> usize {
    let open = ["SampleDecoder", "::new("].concat();
    code(src).lines().filter(|l| l.contains(&open)).count()
}

/// Lines above the test module that drain a scan into a vector: a
/// call of `.drain(` on anything but a range. Under `vdbms/src` none
/// may — every query streams, Q9 over its four faces in lockstep; the
/// whole-video oracles drain in test modules. The pattern is assembled
/// here so this file does not match itself.
fn drains_a_scan(src: &str) -> usize {
    let call = [".drain", "("].concat();
    let range = [call.as_str(), ".."].concat();
    code(src).lines().filter(|l| l.matches(&call).count() > l.matches(&range).count()).count()
}

/// Code lines above the test module that name `Policy::Eager` or
/// `Policy::Sequence`, which no engine runs. They stay only because
/// the benchmark's optimizer probe names them, so under `crates/*/src`
/// only `plan.rs`'s `label` match may (the enum declares them bare);
/// comment lines do not count. The patterns are assembled here so
/// this file does not match itself.
fn names_unrun_policy(src: &str) -> usize {
    let names = ["Eager", "Sequence"].map(|v| ["Policy", "::", v].concat());
    code(src)
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .filter(|l| names.iter().any(|n| l.contains(n.as_str())))
        .count()
}

/// The full-frame kernels that must walk plane rows: Q4's resample and
/// Q6's coalesce, the plate finder and the detector.
const ROW_KERNELS: [&str; 3] =
    ["frame/src/ops.rs", "vision/src/alpr.rs", "vision/src/yolo.rs"];

/// Whether no line above the test module reads a pixel
/// through `Frame`'s three-plane accessor (`.get(x, y)`) or
/// `is_omega(`, each of which resolves all three copy-on-write planes
/// per call. Only [`ROW_KERNELS`] are held to it: the engine sources
/// (`batch.rs`, `functional.rs`, ...) model the paper's systems, the
/// Figure 7 subjects, whose deliberately scalar loops are part of what
/// the benchmark measures, and a sparse read (`decode_quad`'s `get_y`
/// stencil) is not a full-frame walk. The patterns are assembled here
/// so this file does not match itself.
fn reads_plane_rows(src: &str) -> bool {
    let get = [".get(", "x, y)"].concat();
    let omega = ["is_", "omega("].concat();
    !code(src).lines().any(|l| l.contains(&get) || l.contains(&omega))
}

/// Whether a crate root makes `unsafe` a compiler error: `forbid`, or
/// `deny` where one module needs an `allow` (`vr-base`'s allocator).
fn refuses_unsafe(lib_rs: &str) -> bool {
    lib_rs.lines().any(|l| l == "#![forbid(unsafe_code)]" || l == "#![deny(unsafe_code)]")
}

/// Whether a script fits the `ci.sh` line budget.
fn within_line_budget(script: &str) -> bool {
    script.lines().count() <= CI_MAX_LINES
}

/// The only build setting `.cargo/config.toml` may hold: code
/// generation for the build host's vector unit on x86-64.
const BUILD_SETTING: [&str; 2] =
    ["[target.'cfg(target_arch = \"x86_64\")']", "rustflags = [\"-C\", \"target-cpu=native\"]"];

/// Whether a cargo config holds exactly [`BUILD_SETTING`] and no other
/// table or key (comments and blank lines aside).
fn holds_one_build_setting(config: &str) -> bool {
    let lines = config.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#'));
    lines.eq(BUILD_SETTING)
}

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(p: &Path) -> String {
    std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
}

/// Every `*.rs` file under `dir`.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let p = entry.unwrap().path();
        if p.is_dir() {
            rust_sources(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

#[test]
fn the_repository_passes_every_guard() {
    let root = repo();
    let crates = root.join("crates");
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(&crates).unwrap() {
        let dir = entry.unwrap().path();
        let lib = dir.join("src/lib.rs");
        assert!(refuses_unsafe(&read(&lib)), "{} allows unsafe code", lib.display());
        manifests.push(dir.join("Cargo.toml"));
    }
    for m in &manifests {
        let text = read(m);
        let bad = registry_dependencies(&text);
        assert!(bad.is_empty(), "{} declares a registry dependency: {bad:?}", m.display());
    }

    let pipeline = read(&crates.join("vdbms/src/pipeline.rs"));
    assert_eq!(scopes_above_tests(&pipeline), 1, "pipeline.rs must hold one streaming executor");

    let mut sources = Vec::new();
    rust_sources(&crates, &mut sources);
    let writer = crates.join("base/src/json.rs");
    for src in sources.iter().filter(|p| **p != writer) {
        assert!(!brings_own_escaper(&read(src)), "a JSON escaper outside json.rs: {}", src.display());
    }
    let vdbms = crates.join("vdbms/src");
    let drains: std::collections::BTreeMap<String, usize> = sources
        .iter()
        .filter_map(|src| {
            let n = drains_a_scan(&read(src));
            let name = src.strip_prefix(&vdbms).ok()?.display().to_string();
            (n > 0).then_some((name, n))
        })
        .collect();
    let drains: Vec<(&str, usize)> = drains.iter().map(|(f, &n)| (f.as_str(), n)).collect();
    assert_eq!(drains, [], "scans drained under vdbms/src");
    let kernels = read(&crates.join("vdbms/src/kernels.rs"));
    assert_eq!(opens_sample_decoder(&kernels), 1, "a sample decoder outside FrameStream's constructor");
    for kernel in ROW_KERNELS {
        let src = read(&crates.join(kernel));
        assert!(reads_plane_rows(&src), "a per-pixel Frame read in {kernel}");
    }
    let sync = crates.join("base/src/sync.rs");
    let io = crates.join("vdbms/src/io.rs");
    let mut env_vars = std::collections::BTreeSet::new();
    let mut binds = Vec::new();
    let mut unrun = Vec::new();
    for src in &sources {
        let text = read(src);
        let what = src.display();
        if *src != io {
            assert_eq!(resolves_video_track(&text), 0, "a video-track lookup outside io.rs: {what}");
        }
        env_vars.extend(env_vars_read(&text).into_iter().map(str::to_string));
        assert!(!defines_channel(&text), "a channel other than std's: {}", src.display());
        if *src != sync {
            assert!(!reads_panic_payload(&text), "a panic payload reader outside sync.rs: {what}");
        }
        let rel = src.strip_prefix(&crates).unwrap();
        if rel.components().nth(1).is_some_and(|c| c.as_os_str() == "src") {
            let (n, m) = (binds_listener(&text), names_unrun_policy(&text));
            if n > 0 {
                binds.push((rel.to_path_buf(), n));
            }
            if m > 0 {
                unrun.push((rel.to_path_buf(), m));
            }
        }
    }
    let server = (PathBuf::from("core/src/server.rs"), 1);
    assert_eq!(binds, [server], "the sockets bound under crates/*/src");
    let label = (PathBuf::from("vdbms/src/plan.rs"), 2);
    assert_eq!(unrun, [label], "unrun policies named under crates/*/src");
    assert_eq!(env_vars.iter().collect::<Vec<_>>(), ENV_VARS, "the VR_* variables read under crates/");

    let ci = read(&root.join("ci.sh"));
    assert!(within_line_budget(&ci), "ci.sh has {} lines", ci.lines().count());
    let config = read(&root.join(".cargo/config.toml"));
    assert!(holds_one_build_setting(&config), ".cargo/config.toml holds another setting:\n{config}");
}

#[test]
fn each_guard_rejects_a_bad_input() {
    let manifest = "[dependencies]\n# the criterion replacement = none\nvr-base = { path = \"x\" }\n";
    assert!(registry_dependencies(manifest).is_empty(), "a comment or a path dependency");
    for dep in ["rand = \"0.8\"", "  crossbeam-channel = \"0.5\"", "parking_lot={ version = \"1\" }"] {
        assert_eq!(registry_dependencies(&format!("[dependencies]\n{dep}\n")), [dep]);
    }

    let one = "fn stream() {\n    std::thread::scope(|s| {});\n}\n#[cfg(test)]\nmod tests {\n    std::thread::scope(|s| {});\n}\n";
    assert_eq!(scopes_above_tests(one), 1, "the test module does not count");
    let two = one.replacen("fn stream", "fn second() {\n    std::thread::scope(|s| {});\n}\nfn stream", 1);
    assert_eq!(scopes_above_tests(&two), 2);
    // A test-only `use` above the code hides nothing below it.
    let hidden = |bad: &str| format!("#[cfg(test)]\nuse crate::oracle;\n{bad}");
    assert_eq!(scopes_above_tests(&hidden(&two)), 2, "below a test-only use");

    assert!(!brings_own_escaper("w.member(\"name\", name);"));
    assert!(brings_own_escaper(&format!("fn {}(s: &str) -> String {{ todo!() }}", ["json", "escape"].join("_"))));
    assert!(brings_own_escaper(&["let q = s.replace('", "\"', \"\\\\\\\"\");"].concat()));

    assert!(!defines_channel("let (tx, rx) = std::sync::mpsc::sync_channel(8);"));
    assert!(defines_channel(&format!("pub fn {}<T>(capacity: usize) {{}}", "channel")));
    assert!(defines_channel(&["pub struct ", "Sender<T>(Arc<Chan<T>>);"].concat()));
    assert!(defines_channel(&["pub struct ", "Receiver<T>(Arc<Chan<T>>);"].concat()));

    let reader = ["let m = p.downcast_ref::<", "&str>();\n"].concat();
    assert!(reads_panic_payload(&format!("fn message(p: P) {{\n{reader}}}\n")));
    assert!(reads_panic_payload(&hidden(&format!("fn message(p: P) {{\n{reader}}}\n"))));
    let in_tests = format!("fn f() {{}}\n#[cfg(test)]\nmod tests {{\n{reader}}}\n");
    assert!(!reads_panic_payload(&in_tests), "the test module does not count");

    let getter = ["std::env::", "var(\"VR_"].concat();
    let two = format!("if let Ok(v) = {getter}WORKERS\") {{}}\nlet t = {getter}TRACE\").ok();\n");
    assert_eq!(env_vars_read(&two), ["VR_WORKERS", "VR_TRACE"], "a third variable");
    assert_eq!(env_vars_read(&hidden(&two)), ["VR_WORKERS", "VR_TRACE"], "below a test-only use");
    let in_tests = format!("fn f() {{}}\n#[cfg(test)]\nmod tests {{\n{getter}TRACE\");\n}}\n");
    assert!(env_vars_read(&in_tests).is_empty(), "the test module does not count");

    let bind = ["let listener = TcpListener", "::bind((\"127.0.0.1\", port))?;\n"].concat();
    let server = format!("fn start() {{\n{bind}}}\n#[cfg(test)]\nmod tests {{\n{bind}}}\n");
    assert_eq!(binds_listener(&server), 1, "the test module does not count");
    let endpoint = format!("#[cfg(test)]\nfn helper() {{}}\npub fn start(port: u16) {{\n{bind}}}\n");
    assert_eq!(binds_listener(&endpoint), 1, "a second listener, in another file, below a test helper");
    let udp = ["let s = UdpSocket", "::bind(addr)?;\n"].concat();
    assert_eq!(binds_listener(&format!("fn beacon() {{\n{udp}}}\n")), 1, "a UDP socket");

    let lookup = ["let t = c.track_of_kind(", "TrackKind::Video).unwrap();\n"].concat();
    assert_eq!(resolves_video_track(&format!("fn f(c: &C) {{\n{lookup}}}\n")), 1);
    assert_eq!(resolves_video_track(&hidden(&format!("fn f(c: &C) {{\n{lookup}}}\n"))), 1);
    let in_tests = format!("fn f() {{}}\n#[cfg(test)]\nmod tests {{\n{lookup}}}\n");
    assert_eq!(resolves_video_track(&in_tests), 0, "the test module does not count");

    let open = ["let decoder = SampleDecoder", "::new(info);\n"].concat();
    let stream = format!("impl<'a> FrameStream<'a> {{\n    fn over() {{\n    {open}    }}\n}}\n");
    assert_eq!(opens_sample_decoder(&stream), 1, "the stream's constructor");
    let loop_of_its_own = format!("{stream}\npub fn decode_all() {{\n    {open}}}\n");
    assert_eq!(opens_sample_decoder(&loop_of_its_own), 2, "a decode loop beside the stream");
    assert_eq!(opens_sample_decoder(&hidden(&loop_of_its_own)), 2, "below a test-only use");
    let in_tests = format!("{stream}#[cfg(test)]\nmod tests {{\n{open}}}\n");
    assert_eq!(opens_sample_decoder(&in_tests), 1, "the test module does not count");

    let stream = "fn drive() {\n    buf.drain(..).all(emit);\n}\n";
    assert_eq!(drains_a_scan(stream), 0, "a range drain does not count");
    let q9 = ["decoded.push(pl.drain", "(&mut scan)?);\n"].concat();
    let drained = format!("{stream}fn q9() {{\n{q9}}}\n");
    assert_eq!(drains_a_scan(&drained), 1, "a drain in an engine source");
    let helper = format!("#[cfg(test)]\nfn oracle() {{}}\n{drained}");
    assert_eq!(drains_a_scan(&helper), 1, "below a test-only helper");
    let in_tests = format!("{stream}#[cfg(test)]\nmod tests {{\n{q9}}}\n");
    assert_eq!(drains_a_scan(&in_tests), 0, "the test module does not count");

    let (eager, sequence) = (["Policy", "::Eager"].concat(), ["Policy", "::Sequence"].concat());
    let label = format!("match self {{\n    {eager} => \"eager\",\n    {sequence} => \"sequence\",\n}}\n");
    assert_eq!(names_unrun_policy(&label), 2, "plan.rs's label match");
    let space = format!("fn space() {{\n    let s = CandidateSpace {{ policies: vec![{eager}], max_fanout: 4 }};\n}}\n");
    assert_eq!(names_unrun_policy(&space), 1, "a candidate space that lists one");
    assert_eq!(names_unrun_policy(&hidden(&space)), 1, "below a test-only use");
    assert_eq!(names_unrun_policy(&format!("/// Priced like [`{eager}`].\nfn f() {{}}\n")), 0, "a doc comment");
    let in_tests = format!("fn f() {{}}\n#[cfg(test)]\nmod tests {{\n{space}}}\n");
    assert_eq!(names_unrun_policy(&in_tests), 0, "the test module does not count");

    let pixel = ["let p = frame.get(", "x, y);\n"].concat();
    let omega = ["if !overlay.is_", "omega(x, y) {}\n"].concat();
    assert!(reads_plane_rows("fn f() {\nlet l = frame.get_y(x, y);\n}\n"), "a sparse luma read");
    assert!(!reads_plane_rows(&format!("fn f() {{\n{pixel}}}\n")), "a three-plane read");
    assert!(!reads_plane_rows(&format!("fn f() {{\n{omega}}}\n")), "an ω test");
    assert!(!reads_plane_rows(&hidden(&format!("fn f() {{\n{pixel}}}\n"))), "below a test-only use");
    let in_tests = format!("fn f() {{}}\n#[cfg(test)]\nmod tests {{\n{pixel}{omega}}}\n");
    assert!(reads_plane_rows(&in_tests), "the test module does not count");

    assert!(refuses_unsafe("//! A crate.\n\n#![forbid(unsafe_code)]\n\npub mod a;\n"));
    assert!(!refuses_unsafe("//! A crate.\n\npub mod a;\n"), "a crate root without the attribute");
    assert!(!refuses_unsafe("// #![forbid(unsafe_code)]\npub mod a;\n"), "a commented-out attribute");

    assert!(within_line_budget(&"x\n".repeat(CI_MAX_LINES)));
    assert!(!within_line_budget(&"x\n".repeat(CI_MAX_LINES + 1)), "a 151-line script");

    let setting = format!("# why\n{}\n\n{}\n", BUILD_SETTING[0], BUILD_SETTING[1]);
    assert!(holds_one_build_setting(&setting));
    assert!(!holds_one_build_setting(""), "no setting");
    assert!(!holds_one_build_setting(&format!("{setting}[profile.release]\nlto = true\n")), "a second knob");
    let portable = setting.replace("native", "x86-64-v3");
    assert!(!holds_one_build_setting(&portable), "another target");
    let more_flags = setting.replace("\"]", "\", \"-C\", \"codegen-units=1\"]");
    assert!(!holds_one_build_setting(&more_flags), "a second flag");
}
