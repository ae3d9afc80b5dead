#!/usr/bin/env bash
# Tier-1 verification: three stages, each timed, with a summary table.
#
#   ./ci.sh            run every stage in order, print a summary table
#   ./ci.sh <stage>    run one stage (guard|build|test)
#
# Must pass with zero network access: the workspace is std-only, so a
# cold crates.io cache resolves offline. Every check is a `cargo test`
# case (README.md "CI" names the test that carries each one); this
# script only runs the stages. results/ci/ is scratch: the guard stage
# leaves its line-count tables there.
set -euo pipefail
cd "$(dirname "$0")"

ART="results/ci"
STAGES=(guard build test)

stage_guard() {
    echo "-- warnings are errors across every target"
    RUSTFLAGS="-D warnings" cargo check -q --release --offline --all-targets
    # Informational: lines of code counted by the repo's own instrument
    # (vr_bench::loc, the Figure 7 counter), so a refactor's size is a
    # number. The one-of-each guards are `crates/bench/tests/repo_guards.rs`.
    cargo build -q --release --offline -p vr-bench --bin loc_report
    echo "-- request-path lines of code"
    ./target/release/loc_report crates/core/src/{server,vcd,semantic}.rs \
        crates/core/src/bin/visualroad.rs | tee "$ART/loc.txt"
    echo "-- JSON-bearing lines of code; one writer, one escaper"
    ./target/release/loc_report crates/base/src/{json,admission}.rs \
        crates/base/src/obs/{mod,metrics,slo,qlog,trace}.rs \
        crates/vdbms/src/{plan,cost}.rs crates/bench/src/json.rs \
        crates/bench/src/bin/stress_test.rs \
        crates/core/src/bin/visualroad.rs | tee "$ART/loc_json.txt"
    echo "-- the executor's lines of code; one streaming executor"
    ./target/release/loc_report crates/vdbms/src/pipeline.rs | tee "$ART/loc_pipeline.txt"
}

# benchmark/ is a package of its own (not a workspace member) that may
# not be edited to follow the crates: building and testing it here makes
# API drift in crates/* fail CI rather than the benchmark pipeline.
BENCHMARK_PKG=(--offline --manifest-path benchmark/Cargo.toml)

stage_build() {
    cargo build --release --offline
    cargo build -q --release "${BENCHMARK_PKG[@]}"
}

stage_test() {
    cargo test -q --offline
    cargo test -q "${BENCHMARK_PKG[@]}"
}

run_one() {
    local fn="stage_$1"
    if ! declare -F "$fn" >/dev/null; then
        echo "ci.sh: unknown stage '$1' (stages: ${STAGES[*]})" >&2
        exit 2
    fi
    mkdir -p "$ART"
    "$fn"
}

if [[ $# -gt 0 ]]; then
    run_one "$1"
    exit 0
fi

# Full run: every stage in order, timed, with a final summary table
# that prints even when a stage fails.
SUMMARY=()
print_summary() {
    echo
    echo "== CI summary =="
    printf '%-8s %8s  %s\n' "stage" "seconds" "status"
    local row
    for row in "${SUMMARY[@]}"; do
        printf '%-8s %8s  %s\n' $row
    done
}
trap print_summary EXIT

for stage in "${STAGES[@]}"; do
    echo
    echo "== stage: $stage =="
    t0=$SECONDS
    if bash "$0" "$stage"; then
        SUMMARY+=("$stage $((SECONDS - t0)) PASS")
    else
        SUMMARY+=("$stage $((SECONDS - t0)) FAIL")
        echo "CI FAILED at stage '$stage'" >&2
        exit 1
    fi
done

echo
echo "CI OK"
