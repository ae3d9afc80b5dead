//! One-of-each guards over the repository tree: no registry
//! dependency in any manifest, one scoped-thread executor in
//! `pipeline.rs`, one JSON escaper, and a `ci.sh` that stays a stage
//! table. Each guard is a function over text, shown failing on a bad
//! input below.

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

/// `std::thread::scope` lines above the first `#[cfg(test)]` line.
fn scopes_above_tests(src: &str) -> usize {
    src.lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .filter(|l| l.contains("std::thread::scope"))
        .count()
}

/// Whether a source brings its own JSON escaper: the old helper's name
/// or a chain that replaces `"` with `\"`. Both patterns are assembled
/// here so this file does not match itself.
fn brings_own_escaper(src: &str) -> bool {
    let helper = ["json", "escape"].join("_");
    let chain = [".replace('", "\"', \"", "\\\\", "\\\"\")"].concat();
    src.contains(&helper) || src.contains(&chain)
}

/// Whether a script fits the `ci.sh` line budget.
fn within_line_budget(script: &str) -> bool {
    script.lines().count() <= CI_MAX_LINES
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
        manifests.push(entry.unwrap().path().join("Cargo.toml"));
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

    let ci = read(&root.join("ci.sh"));
    assert!(within_line_budget(&ci), "ci.sh has {} lines", ci.lines().count());
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

    assert!(!brings_own_escaper("w.member(\"name\", name);"));
    assert!(brings_own_escaper(&format!("fn {}(s: &str) -> String {{ todo!() }}", ["json", "escape"].join("_"))));
    assert!(brings_own_escaper(&["let q = s.replace('", "\"', \"\\\\\\\"\");"].concat()));

    assert!(within_line_budget(&"x\n".repeat(CI_MAX_LINES)));
    assert!(!within_line_budget(&"x\n".repeat(CI_MAX_LINES + 1)), "a 151-line script");
}
