//! Lines-of-code measurement for Figure 7.
//!
//! The paper counts "the minimal code required to execute each query"
//! per system plus "supporting extension" code. Here the engines'
//! per-query code lives in the match arms of their `execute`
//! functions, so the measurement parses each engine's real source
//! (compiled in with `include_str!`) and counts the non-empty,
//! non-comment lines of each `QuerySpec::…` arm. Shared kernel code
//! is the "supporting extension" bucket.

use crate::table::TextTable;

/// Engine sources, embedded at compile time so the measurement always
/// reflects the code that actually ran.
pub const REFERENCE_SRC: &str = include_str!("../../vdbms/src/reference.rs");
pub const BATCH_SRC: &str = include_str!("../../vdbms/src/batch.rs");
pub const FUNCTIONAL_SRC: &str = include_str!("../../vdbms/src/functional.rs");
pub const CASCADE_SRC: &str = include_str!("../../vdbms/src/cascade.rs");
pub const KERNELS_SRC: &str = include_str!("../../vdbms/src/kernels.rs");

/// Count non-empty, non-comment lines.
pub fn loc(source: &str) -> usize {
    source
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// `source` split at its inline test module — the first unindented
/// `#[cfg(test)]` line followed by a `mod … {` line: the code above it,
/// then the tests from it on (empty when the file has none). A
/// `#[cfg(test)]` static, function or out-of-line module above it
/// counts as code. A file whose header (inner doc comments and inner
/// attributes, before any item) holds `#![cfg(test)]` is tests whole.
pub fn split_tests(source: &str) -> (&str, &str) {
    let header = source.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with("//"));
    for line in header {
        if line == "#![cfg(test)]" {
            return ("", source);
        }
        if !line.starts_with("#![") {
            break;
        }
    }
    let opens_module = |next: &str| next.trim_end().ends_with('{') && next.contains("mod ");
    let at = source.match_indices("#[cfg(test)]\n").map(|(at, _)| at).find(|&at| {
        (at == 0 || source[..at].ends_with('\n'))
            && source[at..].lines().nth(1).is_some_and(opens_module)
    });
    source.split_at(at.unwrap_or(source.len()))
}

/// Lines of the `QuerySpec::<arm>` match arm(s) for one query label
/// (e.g. `"Q2c"`) in an engine source. Tracks brace/paren depth from
/// the arm's pattern line to its closing brace.
pub fn query_arm_loc(source: &str, arm: &str) -> usize {
    let needle = format!("QuerySpec::{arm}");
    let lines: Vec<&str> = source.lines().collect();
    let mut total = 0usize;
    let mut i = 0usize;
    while i < lines.len() {
        let line = lines[i].trim_start();
        // Only match *pattern* positions (arm openings), not
        // constructor uses inside other arms: the pattern line ends
        // with `=> {` or contains `=>` after the needle.
        let at_identifier_end = line.strip_prefix(&needle).is_some_and(|rest| {
            !rest.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
        });
        if at_identifier_end && lines[i].contains("=>") {
            let mut depth = 0i64;
            let mut j = i;
            loop {
                let l = lines[j];
                let trimmed = l.trim();
                if !trimmed.is_empty() && !trimmed.starts_with("//") {
                    total += 1;
                }
                depth += l.chars().filter(|&c| c == '{' || c == '(').count() as i64;
                depth -= l.chars().filter(|&c| c == '}' || c == ')').count() as i64;
                j += 1;
                if depth <= 0 || j >= lines.len() {
                    break;
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    total
}

/// The arm names per benchmark query label, as used in the engine
/// sources.
pub const QUERY_ARMS: [(&str, &str); 14] = [
    ("Q1", "Q1"),
    ("Q2(a)", "Q2a"),
    ("Q2(b)", "Q2b"),
    ("Q2(c)", "Q2c"),
    ("Q2(d)", "Q2d"),
    ("Q3", "Q3"),
    ("Q4", "Q4"),
    ("Q5", "Q5"),
    ("Q6(a)", "Q6a"),
    ("Q6(b)", "Q6b"),
    ("Q7", "Q7"),
    ("Q8", "Q8"),
    ("Q9", "Q9"),
    ("Q10", "Q10"),
];

/// The Figure 7 reproduction, as `repro_fig7` prints it and
/// `results/repro_fig7.txt` holds it: each query's arm LOC per engine,
/// then each engine module's and the shared kernels' non-test LOC.
pub fn figure7() -> String {
    let engines: [(&str, &str); 4] = [
        ("reference", REFERENCE_SRC),
        ("batch", BATCH_SRC),
        ("functional", FUNCTIONAL_SRC),
        ("cascade", CASCADE_SRC),
    ];
    let mut arms = TextTable::new(&["query", "reference", "batch", "functional", "cascade"]);
    for (label, arm) in QUERY_ARMS {
        let cells = engines
            .iter()
            .map(|(_, src)| match query_arm_loc(src, arm) {
                0 => "N/A".to_string(),
                n => n.to_string(),
            })
            .collect();
        arms.row(label, cells);
    }
    let kernels = loc(split_tests(KERNELS_SRC).0);
    let mut modules = TextTable::new(&["engine", "module LOC", "shared kernels LOC"]);
    for (name, src) in engines {
        modules.row(name, vec![loc(split_tests(src).0).to_string(), kernels.to_string()]);
    }
    format!(
        "Figure 7 reproduction — LOC of each query's implementation per engine:\n\n{}\n\
         Supporting code (whole engine module + the shared kernel library, tests excluded):\n\n{}\n\
         Note: like the paper's NoScope bars, the cascade engine implements only\n\
         Q1 and Q2(c); its per-query LOC is small because the engine is narrow.\n",
        arms.render(),
        modules.render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_skips_blank_and_comment_lines() {
        let src = "fn a() {\n\n    // comment\n    let x = 1;\n}\n";
        assert_eq!(loc(src), 3);
    }

    #[test]
    fn tests_split_off_at_the_inline_test_module() {
        let code =
            "#[cfg(test)]\nstatic LOCK: () = ();\nfn a() {\n    #[cfg(test)]\n    mod m {}\n}\n";
        let tests =
            "#[cfg(test)]\nmod tests {\n    // checks\n    fn t() {}\n}\n#[cfg(test)]\nfn u() {}\n";
        let source = format!("{code}\n{tests}");
        let (above, below) = split_tests(&source);
        assert_eq!((above, below), (&format!("{code}\n")[..], tests));
        assert_eq!((loc(above), loc(below)), (6, 6));
        assert_eq!(split_tests(code), (code, ""));
        assert_eq!(split_tests(""), ("", ""));
        // A test-only file is tests from its first line.
        let test_only = "//! Parity suites.\n\n#![cfg(test)]\n\nuse super::*;\nfn t() {}\n";
        assert_eq!(split_tests(test_only), ("", test_only));
        let gated_item = "#![forbid(unsafe_code)]\nfn a() {}\nmod m {\n    #![cfg(test)]\n}\n";
        assert_eq!(split_tests(gated_item), (gated_item, ""));
    }

    #[test]
    fn arm_counting_on_synthetic_source() {
        let src = r#"
match spec {
    QuerySpec::Q1 { rect } => {
        let a = 1;
        let b = 2;
    }
    QuerySpec::Q2a => {
        one_liner();
    }
    QuerySpec::Q10 { client } => {
        ten();
    }
    _ => {}
}
"#;
        assert_eq!(query_arm_loc(src, "Q1"), 4); // pattern + 2 + close
        assert_eq!(query_arm_loc(src, "Q2a"), 3);
        assert_eq!(query_arm_loc(src, "Q10"), 3);
        assert_eq!(query_arm_loc(src, "Q99"), 0);
    }

    #[test]
    fn real_engine_sources_have_arms() {
        // Every query has a nonzero arm in the reference engine.
        for (label, arm) in QUERY_ARMS {
            let n = query_arm_loc(REFERENCE_SRC, arm);
            assert!(n > 0, "no code found for {label} in reference engine");
        }
        // The cascade engine implements only Q1 and Q2(c).
        assert!(query_arm_loc(CASCADE_SRC, "Q1") > 0);
        assert!(query_arm_loc(CASCADE_SRC, "Q2c") > 0);
        assert_eq!(query_arm_loc(CASCADE_SRC, "Q7"), 0);
        // Engine modules are substantial.
        assert!(loc(BATCH_SRC) > 100);
        assert!(loc(FUNCTIONAL_SRC) > 100);
        assert!(loc(KERNELS_SRC) > 100);
    }

    /// `results/repro_fig7.txt` is what `repro_fig7` prints for this
    /// tree. On a mismatch, regenerate it:
    /// `cargo run --release -p vr-bench --bin repro_fig7 > results/repro_fig7.txt`.
    #[test]
    fn committed_figure7_matches_the_sources() {
        let committed = include_str!("../../../results/repro_fig7.txt");
        let printed = figure7();
        assert!(committed == printed, "results/repro_fig7.txt is stale; it now reads:\n{printed}");
    }
}
