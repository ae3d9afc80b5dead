#!/usr/bin/env bash
# Tier-1 verification, structured as a staged harness.
#
#   ./ci.sh            run every stage in order, print a summary table
#   ./ci.sh <stage>    run one stage (guard|build|test|determinism|chaos|
#                      alloc-gate|obs-gate|server-gate|index-gate)
#
# Must pass with zero network access: the workspace is std-only, so a
# cold crates.io cache resolves offline. Gate artifacts (determinism
# output dirs, chaos logs, traces and metric snapshots) are collected
# under results/ci/ and survive failures so a red gate can be diagnosed
# offline.
set -euo pipefail
cd "$(dirname "$0")"

ART="results/ci"
STAGES=(guard build test determinism chaos alloc-gate obs-gate server-gate index-gate)

# Shared query-path invocation for the determinism and obs gates: small
# enough to run in seconds, wide enough to cross every engine and both
# tile layouts.
RUN_ARGS=(run --engine all --queries Q1,Q2c --scale 1 --res 128x72
          --duration 0.4 --batch 2 --no-validate)

stage_guard() {
    echo "-- no registry dependencies in any manifest"
    # Match only dependency *declarations* (`name = ...`), so prose in
    # comments — "the criterion replacement" — never trips the guard.
    if grep -En '^[[:space:]]*(rand|crossbeam[a-z_-]*|parking_lot|proptest|criterion)[[:space:]]*=' \
        Cargo.toml crates/*/Cargo.toml; then
        echo "FAIL: a crate manifest names a registry dependency" >&2
        return 1
    fi
    echo "-- warnings are errors across every target"
    RUSTFLAGS="-D warnings" cargo check -q --release --offline --all-targets
    echo "-- request-path lines of code (vr_bench::loc, the Figure 7 counter)"
    # Informational: the doors every request comes in through, counted
    # by the repo's own instrument so a refactor's size is a number.
    cargo build -q --release --offline -p vr-bench --bin loc_report
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
    # The threads, channels and hang-up order under the streaming
    # policies are written once; a second scoped-thread block above the
    # test module is a second executor.
    local scopes
    scopes=$(sed '/^#\[cfg(test)\]/,$d' crates/vdbms/src/pipeline.rs | grep -c 'std::thread::scope' || true)
    if [[ "$scopes" -gt 1 ]]; then
        echo "FAIL: $scopes std::thread::scope blocks in pipeline.rs above its tests (want one)" >&2
        return 1
    fi
    # Every document goes through vr_base::json; a renderer that brings
    # its own escaper (the old helper's name, or a quote-replacing
    # chain) fails here.
    if grep -rnF --include='*.rs' -e 'json_escape' -e $'.replace(\'"\', "\\\\\\"")' crates \
        | grep -v '^crates/base/src/json.rs:'; then
        echo "FAIL: a JSON escaper outside crates/base/src/json.rs" >&2
        return 1
    fi
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

stage_determinism() {
    # VR_WORKERS=4 output must be byte-identical across runs. Tracing
    # stays off here: the gate pins the untraced production path.
    local det="$ART/determinism"
    rm -rf "$det"
    mkdir -p "$det/run_a" "$det/run_b"
    for out in "$det/run_a" "$det/run_b"; do
        VR_WORKERS=4 ./target/release/visualroad "${RUN_ARGS[@]}" \
            --write "$out" >/dev/null
    done
    if ! diff -r "$det/run_a" "$det/run_b" > "$det/diff.txt" 2>&1; then
        cat "$det/diff.txt"
        echo "FAIL: parallel execution produced run-to-run differences (see $det)" >&2
        return 1
    fi
    echo "outputs identical across runs"
    # Dataset leg: every container the generator writes must be the
    # same bytes for any node count — sequential against the flagless
    # default (every core) users and the benchmark run. Each leg's wall
    # time is the CLI's own "generated ... in N s" line.
    : > "$ART/generate.txt"
    local nodes
    for nodes in 1 ""; do
        ./target/release/visualroad generate --scale 2 --res 192x108 --duration 1.0 --seed 7 \
            ${nodes:+--nodes "$nodes"} --out "$det/dataset_nodes${nodes:-default}" 2>/dev/null \
            | sed -n "s/^generated/nodes=${nodes:-default}: generated/p" | tee -a "$ART/generate.txt"
    done
    if ! diff -r "$det/dataset_nodes1" "$det/dataset_nodesdefault" > "$det/dataset_diff.txt" 2>&1; then
        cat "$det/dataset_diff.txt"
        echo "FAIL: generated dataset differs between --nodes 1 and the default (see $det)" >&2
        return 1
    fi
    echo "dataset identical across node counts"
}

stage_chaos() {
    # Faults are injected deterministically (seeded); the run must
    # finish every query — possibly degraded, never panicked or hung —
    # and the CLI's built-in accounting check must find every injected
    # fault matched by a recovery counter (nonzero exit on mismatch).
    # The batch leg exercises corruption/stall/io-write faults under
    # the parallel scheduler with write-mode sinks plus an enforced
    # deadline; the online leg exercises RTP packet loss.
    local chaos="$ART/chaos"
    rm -rf "$chaos"
    mkdir -p "$chaos/out"
    VR_WORKERS=4 timeout 900 ./target/release/visualroad run --engine all --full-suite \
        --scale 1 --res 128x72 --duration 0.4 --batch 2 --no-validate \
        --write "$chaos/out" --deadline-ms 30000 \
        --faults "corrupt_bitstream=0.01,stall_stage=kernel:2ms,io_fail=write:0.02,panic_kernel=q4:frame2" \
        --fault-seed 7 | tee "$chaos/batch.log"
    rm -rf "$chaos/out"
    VR_WORKERS=4 timeout 900 ./target/release/visualroad run --engine reference --queries Q1,Q2a \
        --scale 1 --res 128x72 --duration 0.4 --batch 2 --no-validate \
        --online 1000 --faults "drop_rtp=0.2" --fault-seed 11 | tee "$chaos/online.log"
    echo "chaos gate OK"
}

stage_alloc_gate() {
    # Allocation budget of the zero-copy data plane, enforced on the
    # canonical sequential Q1 batch run. Before the shared-buffer
    # refactor this run cost 585 stage-scoped heap allocations per
    # query (storage reads copied, scans cloned whole frames, every
    # 8x8 block heap-allocated its run-level pairs); after it, ~107.
    # The budget pins well over the required 30% reduction, with
    # headroom for allocator-neutral drift.
    local alloc="$ART/alloc"
    local budget=150
    rm -rf "$alloc"
    mkdir -p "$alloc"
    VR_WORKERS=1 VR_ALLOC_TRACK=1 ./target/release/visualroad run \
        --engine batch --queries Q1 --scale 1 --res 128x72 \
        --duration 0.4 --batch 2 --no-validate \
        --metrics-out "$alloc/metrics.json" >/dev/null
    local total
    total=$(awk -F'[:,]' '/"alloc\.stage\.[a-z]+\.allocs"/ { sum += $2 } END { print sum + 0 }' \
        "$alloc/metrics.json")
    echo "per-query stage allocations: $total (budget $budget)"
    if [[ -z "$total" || "$total" -le 0 ]]; then
        echo "FAIL: alloc tracking recorded nothing (see $alloc/metrics.json)" >&2
        return 1
    fi
    if [[ "$total" -gt "$budget" ]]; then
        echo "FAIL: Q1 batch allocated $total times per query (budget $budget);" \
             "the zero-copy data plane has regressed (see $alloc/metrics.json)" >&2
        return 1
    fi
}

stage_obs_gate() {
    # Observability gate, six assertions:
    #   1. a traced run emits a chrome-trace profile that validates
    #      (well-formed events, balanced B/E pairs, a span for every
    #      pipeline stage and at least one scheduler instance);
    #   2. the traced run's query output is byte-identical to the
    #      untraced baseline — telemetry never feeds back into results;
    #   3. an explicit VR_TRACE=0 run is also byte-identical, pinning
    #      the disabled path;
    #   4. an EXPLAIN ANALYZE run at one worker (the regime where
    #      per-node self times must sum to <= wall) exits zero, every
    #      pipeline stage appears as a plan node with nonzero wall
    #      time, and the collapsed-stacks export validates;
    #   5. the metrics snapshots validate (non-negative counters,
    #      histogram buckets summing to count) and counters are
    #      monotonic across a genuine mid-run/end-of-run pair;
    #   6. a run with the live endpoint serving on an ephemeral port
    #      produces result files byte-identical to the unserved
    #      baseline — the server is provably non-perturbing;
    #   7. two identical seeded serve sessions driven by the same
    #      single-session workload write structurally valid query logs
    #      that are byte-identical once the two timing fields are
    #      zeroed.
    local obs="$ART/obs"
    rm -rf "$obs"
    mkdir -p "$obs/base" "$obs/traced" "$obs/untraced" "$obs/served"
    VR_WORKERS=4 ./target/release/visualroad "${RUN_ARGS[@]}" \
        --write "$obs/base" > "$obs/base_report.txt"
    VR_WORKERS=4 ./target/release/visualroad "${RUN_ARGS[@]}" \
        --write "$obs/traced" --trace-out "$obs/trace.json" \
        --metrics-out "$obs/metrics.json" > "$obs/traced_report.txt"
    ./target/release/trace_check "$obs/trace.json" --metrics "$obs/metrics.json"
    VR_WORKERS=4 VR_TRACE=0 ./target/release/visualroad "${RUN_ARGS[@]}" \
        --write "$obs/untraced" >/dev/null
    for variant in traced untraced; do
        if ! diff -r "$obs/base" "$obs/$variant" > "$obs/diff_$variant.txt" 2>&1; then
            cat "$obs/diff_$variant.txt"
            echo "FAIL: $variant run differs from the untraced baseline (see $obs)" >&2
            return 1
        fi
    done
    echo "traced and VR_TRACE=0 outputs byte-identical to baseline"

    # 4+5. EXPLAIN ANALYZE leg: the binary itself exits nonzero if any
    # plan fails the self-time invariant; on top of that, require each
    # pipeline stage to show up as an annotated plan node with nonzero
    # wall time, and validate the folded stacks and the mid/end
    # metrics-snapshot pair.
    VR_WORKERS=1 ./target/release/visualroad "${RUN_ARGS[@]}" \
        --explain-analyze --explain-out "$obs/plans.txt" \
        --folded-out "$obs/folded.txt" \
        --metrics-mid-out "$obs/metrics_mid.json" \
        --metrics-out "$obs/metrics_analyze.json" > "$obs/analyze_report.txt"
    for node in scan decode kernel encode sink; do
        if ! grep -Eq "^ *${node}[: ].*wall=[1-9]" "$obs/plans.txt"; then
            echo "FAIL: no annotated '$node' plan node with nonzero wall time in $obs/plans.txt" >&2
            return 1
        fi
    done
    ./target/release/trace_check \
        --metrics-pair "$obs/metrics_mid.json" "$obs/metrics_analyze.json" \
        --folded "$obs/folded.txt"
    echo "explain-analyze plans, folded stacks, and metrics snapshots OK"

    # 6. Served-vs-unserved byte identity: the endpoint binds an
    # ephemeral loopback port (announced on stderr only) and must not
    # perturb a single byte of the written results. (Reports carry
    # wall-clock runtimes, so only the result files can be compared
    # across runs; they are kept as artifacts regardless.)
    VR_WORKERS=4 ./target/release/visualroad "${RUN_ARGS[@]}" \
        --write "$obs/served" --serve-metrics 0 \
        > "$obs/served_report.txt" 2> "$obs/served_stderr.txt"
    grep -q "serving metrics on http://127.0.0.1:" "$obs/served_stderr.txt"
    if ! diff -r "$obs/base" "$obs/served" > "$obs/diff_served.txt" 2>&1; then
        cat "$obs/diff_served.txt"
        echo "FAIL: serving /metrics perturbed the written results (see $obs)" >&2
        return 1
    fi
    echo "served run byte-identical to unserved baseline"

    # 7. Query-log determinism: everything in a record except the two
    # measured timings is a pure function of the (seeded) request
    # sequence — including the plan digests and the index-vs-rescan
    # route — so two identical serve sessions must log identically.
    cargo build -q --release --offline -p vr-bench --bin stress_test --bin trace_check
    local run fd pid addr
    for run in a b; do
        mkfifo "$obs/serve_$run.stdin"
        exec {fd}<>"$obs/serve_$run.stdin"
        VR_WORKERS=4 timeout 300 ./target/release/visualroad serve \
            --scale 1 --res 96x54 --duration 0.25 --queries Q1 \
            --engine batch --workers 2 --use-index \
            --qlog-out "$obs/qlog_$run.jsonl" \
            <&"$fd" > "$obs/serve_${run}_stdout.txt" 2> "$obs/serve_${run}_stderr.txt" &
        pid=$!
        addr=""
        for _ in $(seq 1 150); do
            addr=$(sed -n 's/^serving on //p' "$obs/serve_${run}_stdout.txt")
            [[ -n "$addr" ]] && break
            kill -0 "$pid" 2>/dev/null || break
            sleep 0.2
        done
        if [[ -z "$addr" ]]; then
            cat "$obs/serve_${run}_stderr.txt" >&2
            echo "FAIL: qlog serve session $run never announced its address (see $obs)" >&2
            exec {fd}>&-
            return 1
        fi
        # One session => a strictly sequential, fully deterministic
        # request order; the driver also replays the log against STATS.
        ./target/release/stress_test --addr "$addr" \
            --tenants det:high:1 --requests 4 --queries Q1,S1 \
            --qlog "$obs/qlog_$run.jsonl" > "$obs/stress_$run.log"
        # The server holds its own (read-write) end of the FIFO, so EOF
        # never arrives; the out-of-band shutdown line drains it.
        printf 'SHUTDOWN\n' >&"$fd"
        wait "$pid"
        exec {fd}>&-
        ./target/release/trace_check --qlog "$obs/qlog_$run.jsonl"
        sed -E 's/"queue_wait_us": [0-9]+/"queue_wait_us": 0/; s/"latency_us": [0-9]+/"latency_us": 0/' \
            "$obs/qlog_$run.jsonl" > "$obs/qlog_${run}_normalized.jsonl"
    done
    if ! diff "$obs/qlog_a_normalized.jsonl" "$obs/qlog_b_normalized.jsonl" > "$obs/diff_qlog.txt" 2>&1; then
        cat "$obs/diff_qlog.txt"
        echo "FAIL: query logs differ between identical seeded serve sessions (see $obs)" >&2
        return 1
    fi
    echo "query logs byte-identical across identical serve sessions (timings zeroed)"
}

stage_server_gate() {
    # Multi-tenant serving gate: a chaos-injected query server under a
    # mixed-priority stress fleet. The driver itself verifies the exact
    # admission ledger (driver-observed ok/cancelled/err/shed/degraded
    # counts match the server's STATS field for field), that only
    # low-priority work is load-shed while shedding demonstrably
    # happens, and that high-priority p99 stays bounded; the stage adds
    # the process-level assertions — no panic on either side, a clean
    # wire-initiated drain, and zero exits all round. The driver also
    # replays the structured query log (--qlog) and reconciles it
    # record-by-record with the STATS ledger, and trace_check validates
    # the log's shape. A second serve session then gates the SLO layer:
    # /slo must report a burning error budget for the shed tenant and
    # zero violations for the high-priority class, with a slow-query
    # exemplar captured in its log.
    local srv="$ART/server"
    rm -rf "$srv"
    mkdir -p "$srv"
    cargo build -q --release --offline -p vr-bench --bin stress_test --bin trace_check
    # The server treats stdin EOF as an out-of-band stop signal, so
    # park a FIFO on its stdin for the duration; the drain is driven
    # over the wire by the stress driver's --shutdown instead.
    mkfifo "$srv/stdin"
    local srv_in
    exec {srv_in}<>"$srv/stdin"
    VR_WORKERS=4 timeout 600 ./target/release/visualroad serve \
        --scale 1 --res 96x54 --duration 0.25 --queries Q1,Q2a \
        --engine batch --workers 2 \
        --max-concurrent 2 --queue-depth 4 --tenant-quota 8 \
        --degrade-load 0.9 --shed-load 1.5 \
        --faults "corrupt_bitstream=0.02,stall_stage=kernel:5ms" --fault-seed 7 \
        --qlog-out "$srv/qlog.jsonl" \
        <&"$srv_in" > "$srv/server_stdout.txt" 2> "$srv/server_stderr.txt" &
    local srv_pid=$!
    local addr="" status=0
    for _ in $(seq 1 150); do
        addr=$(sed -n 's/^serving on //p' "$srv/server_stdout.txt")
        [[ -n "$addr" ]] && break
        if ! kill -0 "$srv_pid" 2>/dev/null; then
            break
        fi
        sleep 0.2
    done
    if [[ -z "$addr" ]]; then
        cat "$srv/server_stderr.txt" >&2
        echo "FAIL: server never announced its address (see $srv)" >&2
        exec {srv_in}>&-
        return 1
    fi
    ./target/release/stress_test --addr "$addr" \
        --tenants gold:high:2,bronze:low:6 --requests 20 --queries Q1,Q2a \
        --deadline-ms 3000 --p99-bound-ms 6000 \
        --expect-shedding --require-high-zero-shed --shutdown \
        --qlog "$srv/qlog.jsonl" \
        --out "$srv/stress.json" | tee "$srv/driver.log" || status=$?
    wait "$srv_pid" || status=$?
    exec {srv_in}>&-
    if [[ "$status" -ne 0 ]]; then
        echo "FAIL: stress driver or server exited nonzero (see $srv)" >&2
        return 1
    fi
    # "panicked at" (not bare "panic"): the fault-plan echo legitimately
    # prints the panic_kernel knob.
    if grep -a "panicked at" "$srv/server_stderr.txt" "$srv/driver.log"; then
        echo "FAIL: a panic surfaced during the serving leg (see $srv)" >&2
        return 1
    fi
    if ! grep -q "drained cleanly" "$srv/server_stderr.txt"; then
        cat "$srv/server_stderr.txt" >&2
        echo "FAIL: server did not drain cleanly after SHUTDOWN (see $srv)" >&2
        return 1
    fi
    ./target/release/trace_check --qlog "$srv/qlog.jsonl"
    echo "server gate OK: ledger exact, qlog reconciled, low-priority shed, clean drain"

    # The SLO leg: a second chaos serve session with the SLO tracker,
    # the query log, and the metrics endpoint all live. Stall-only
    # faults: bitstream corruption (above) turns into ERR outcomes that
    # land on whichever tenant drew them, which would make the
    # zero-high-priority-violations assertion racy; the 5ms kernel
    # stall keeps the chaos while leaving per-class outcomes exact, and
    # guarantees every completion clears the 1ms slow-query threshold.
    mkfifo "$srv/slo_stdin"
    local slo_in
    exec {slo_in}<>"$srv/slo_stdin"
    VR_WORKERS=4 timeout 600 ./target/release/visualroad serve \
        --scale 1 --res 96x54 --duration 0.25 --queries Q1,Q2a \
        --engine batch --workers 2 \
        --max-concurrent 2 --queue-depth 4 --tenant-quota 8 \
        --degrade-load 0.9 --shed-load 1.5 \
        --faults "stall_stage=kernel:5ms" --fault-seed 7 \
        --qlog-out "$srv/slo_qlog.jsonl" --slow-query-ms 1 \
        --slo high=6000,low=60000,target=0.95,window=512 \
        --serve-metrics 0 \
        <&"$slo_in" > "$srv/slo_stdout.txt" 2> "$srv/slo_stderr.txt" &
    local slo_pid=$!
    addr=""
    for _ in $(seq 1 150); do
        addr=$(sed -n 's/^serving on //p' "$srv/slo_stdout.txt")
        [[ -n "$addr" ]] && break
        kill -0 "$slo_pid" 2>/dev/null || break
        sleep 0.2
    done
    if [[ -z "$addr" ]]; then
        cat "$srv/slo_stderr.txt" >&2
        echo "FAIL: SLO-leg server never announced its address (see $srv)" >&2
        exec {slo_in}>&-
        return 1
    fi
    local maddr
    maddr=$(sed -n 's|^serving metrics on http://||p' "$srv/slo_stderr.txt")
    if [[ -z "$maddr" ]]; then
        echo "FAIL: SLO-leg server never announced its metrics endpoint (see $srv)" >&2
        exec {slo_in}>&-
        return 1
    fi
    ./target/release/stress_test --addr "$addr" \
        --tenants gold:high:2,bronze:low:6 --requests 20 --queries Q1,Q2a \
        --deadline-ms 3000 --p99-bound-ms 6000 \
        --expect-shedding --require-high-zero-shed \
        --qlog "$srv/slo_qlog.jsonl" \
        --out "$srv/slo_stress.json" | tee "$srv/slo_driver.log"
    ./target/release/trace_check --qlog "$srv/slo_qlog.jsonl"
    if ! grep -q '"exemplar": "' "$srv/slo_qlog.jsonl" \
        || ! grep -q 'wall=' "$srv/slo_qlog.jsonl"; then
        echo "FAIL: no slow-query exemplar with an annotated plan in $srv/slo_qlog.jsonl" >&2
        exec {slo_in}>&-
        return 1
    fi
    # The live views, over the loopback endpoint while the server still
    # runs: /slo must show the shed tenant burning budget and the
    # high-priority class fully inside its objective, /requests must
    # serve the recent records.
    local fd
    exec {fd}<>"/dev/tcp/${maddr%:*}/${maddr##*:}"
    printf 'GET /slo HTTP/1.0\r\n\r\n' >&"$fd"
    cat <&"$fd" > "$srv/slo_view.json"
    exec {fd}>&-
    exec {fd}<>"/dev/tcp/${maddr%:*}/${maddr##*:}"
    printf 'GET /requests HTTP/1.0\r\n\r\n' >&"$fd"
    cat <&"$fd" > "$srv/requests_view.jsonl"
    exec {fd}>&-
    if ! grep -q '"seq": ' "$srv/requests_view.jsonl"; then
        echo "FAIL: /requests served no query-log records (see $srv/requests_view.jsonl)" >&2
        exec {slo_in}>&-
        return 1
    fi
    local bronze gold
    if ! bronze=$(grep '"bronze/low"' "$srv/slo_view.json"); then
        echo "FAIL: no bronze/low class in /slo (see $srv/slo_view.json)" >&2
        exec {slo_in}>&-
        return 1
    fi
    if [[ "$bronze" == *'"burn_rate": 0.000'* ]]; then
        echo "FAIL: bronze/low burn rate is zero despite shedding: $bronze" >&2
        exec {slo_in}>&-
        return 1
    fi
    if ! gold=$(grep '"gold/high"' "$srv/slo_view.json"); then
        echo "FAIL: no gold/high class in /slo (see $srv/slo_view.json)" >&2
        exec {slo_in}>&-
        return 1
    fi
    if [[ "$gold" != *'"violations": 0,'* ]]; then
        echo "FAIL: gold/high burned error budget: $gold" >&2
        exec {slo_in}>&-
        return 1
    fi
    # Wire-initiated drain, then the same process-level assertions as
    # the first leg.
    local reply=""
    exec {fd}<>"/dev/tcp/${addr%:*}/${addr##*:}"
    printf 'SHUTDOWN\n' >&"$fd"
    read -r -u "$fd" reply || true
    exec {fd}>&-
    reply="${reply%$'\r'}"
    if [[ "$reply" != "OK draining" ]]; then
        echo "FAIL: unexpected SHUTDOWN response on the SLO leg: '$reply'" >&2
        exec {slo_in}>&-
        return 1
    fi
    wait "$slo_pid" || status=$?
    exec {slo_in}>&-
    if [[ "$status" -ne 0 ]]; then
        echo "FAIL: SLO-leg server exited nonzero (see $srv)" >&2
        return 1
    fi
    if grep -a "panicked at" "$srv/slo_stderr.txt" "$srv/slo_driver.log"; then
        echo "FAIL: a panic surfaced during the SLO leg (see $srv)" >&2
        return 1
    fi
    if ! grep -q "drained cleanly" "$srv/slo_stderr.txt"; then
        cat "$srv/slo_stderr.txt" >&2
        echo "FAIL: SLO-leg server did not drain cleanly after SHUTDOWN (see $srv)" >&2
        return 1
    fi
    echo "slo leg OK: shed tenant burning budget, high class clean, exemplar captured"
}

stage_index_gate() {
    # Semantic-index gate, five legs:
    #   1. ingest determinism: two ingests of the same dataset must
    #      produce byte-identical side-index files;
    #   2. answer quality: top-k over the index AND over a full rescan
    #      must both hit recall@10 >= 0.9 against VCG scene geometry,
    #      and the count aggregate must agree byte-for-byte between the
    #      two routes;
    #   3. speed: the index route's top-k p95 must be millisecond-scale
    #      and at least 10x faster than the full rescan of the same
    #      query;
    #   4. fail-closed: truncated and bit-flipped side-index files must
    #      fall back to the rescan route with a warning and exit zero —
    #      never a wrong answer, never a crash;
    #   5. serving: a --use-index server under the stress driver, which
    #      cross-checks every OK's route= token against the admission
    #      ledger's index_served/rescan_served split, tenant by tenant.
    local idx="$ART/index"
    rm -rf "$idx"
    mkdir -p "$idx"
    cargo build -q --release --offline -p visual-road --bin visualroad
    cargo build -q --release --offline -p vr-bench --bin stress_test
    local DS=(--scale 1 --res 96x54 --duration 2.0 --seed 9)

    echo "-- ingest determinism"
    ./target/release/visualroad ingest "${DS[@]}" --out "$idx/a.vrsx" \
        | tee "$idx/ingest.log"
    ./target/release/visualroad ingest "${DS[@]}" --out "$idx/b.vrsx" >/dev/null
    if ! cmp "$idx/a.vrsx" "$idx/b.vrsx"; then
        echo "FAIL: two ingests of the same dataset differ (see $idx)" >&2
        return 1
    fi
    echo "side index byte-identical across runs ($(stat -c%s "$idx/a.vrsx") bytes)"

    echo "-- index vs rescan: top-k recall and latency"
    ./target/release/visualroad search "${DS[@]}" --kind topk --class vehicle \
        --window 8 --k 10 --index "$idx/a.vrsx" --repeat 20 \
        --explain --out "$idx/topk_index.json" | tee "$idx/topk_index.log"
    ./target/release/visualroad search "${DS[@]}" --kind topk --class vehicle \
        --window 8 --k 10 --rescan --repeat 20 \
        --out "$idx/topk_rescan.json" | tee "$idx/topk_rescan.log"
    grep -q '"route": "index"' "$idx/topk_index.json" || {
        echo "FAIL: optimizer did not route top-k to the index (see $idx/topk_index.json)" >&2
        return 1
    }
    grep -q '"route": "rescan"' "$idx/topk_rescan.json" || {
        echo "FAIL: --rescan did not force the rescan route" >&2
        return 1
    }
    jnum() { sed -n "s/.*\"$2\": \([0-9.][0-9.]*\).*/\1/p" "$1"; }
    local r_idx r_rsc p95_idx p95_rsc
    r_idx=$(jnum "$idx/topk_index.json" recall)
    r_rsc=$(jnum "$idx/topk_rescan.json" recall)
    p95_idx=$(jnum "$idx/topk_index.json" p95_us)
    p95_rsc=$(jnum "$idx/topk_rescan.json" p95_us)
    echo "recall@10 index=$r_idx rescan=$r_rsc; p95 index=${p95_idx}us rescan=${p95_rsc}us"
    awk -v r="$r_idx" 'BEGIN { exit !(r >= 0.9) }' || {
        echo "FAIL: index-route recall@10 $r_idx < 0.9 against VCG ground truth" >&2
        return 1
    }
    awk -v r="$r_rsc" 'BEGIN { exit !(r >= 0.9) }' || {
        echo "FAIL: rescan-route recall@10 $r_rsc < 0.9 against VCG ground truth" >&2
        return 1
    }
    awk -v p="$p95_idx" 'BEGIN { exit !(p < 5000) }' || {
        echo "FAIL: index-route top-k p95 ${p95_idx}us blows the 5 ms budget" >&2
        return 1
    }
    awk -v i="$p95_idx" -v r="$p95_rsc" 'BEGIN { exit !(r >= 10 * i) }' || {
        echo "FAIL: rescan p95 ${p95_rsc}us is not >= 10x index p95 ${p95_idx}us" >&2
        return 1
    }

    echo "-- index vs rescan: count aggregate parity"
    ./target/release/visualroad search "${DS[@]}" --kind count \
        --index "$idx/a.vrsx" --repeat 3 --out "$idx/count_index.json" >/dev/null
    ./target/release/visualroad search "${DS[@]}" --kind count \
        --rescan --repeat 3 --out "$idx/count_rescan.json" >/dev/null
    local c_idx c_rsc
    c_idx=$(sed -n 's/.*"answer": "\([^"]*\)".*/\1/p' "$idx/count_index.json")
    c_rsc=$(sed -n 's/.*"answer": "\([^"]*\)".*/\1/p' "$idx/count_rescan.json")
    if [[ -z "$c_idx" || "$c_idx" != "$c_rsc" ]]; then
        echo "FAIL: count aggregate disagrees between routes (index '$c_idx' vs rescan '$c_rsc')" >&2
        return 1
    fi
    echo "count parity OK: $c_idx"

    echo "-- corrupt and truncated side indexes fail closed into rescan"
    head -c $(( $(stat -c%s "$idx/a.vrsx") - 7 )) "$idx/a.vrsx" > "$idx/trunc.vrsx"
    cp "$idx/a.vrsx" "$idx/flip.vrsx"
    printf '\xff\xff\xff\xff' | dd of="$idx/flip.vrsx" bs=1 seek=40 count=4 \
        conv=notrunc status=none
    if cmp -s "$idx/a.vrsx" "$idx/flip.vrsx"; then
        echo "FAIL: byte-flip corruption was a no-op; the leg proves nothing" >&2
        return 1
    fi
    local bad
    for bad in trunc flip; do
        ./target/release/visualroad search "${DS[@]}" --kind count \
            --index "$idx/$bad.vrsx" --repeat 1 \
            --out "$idx/$bad.json" 2> "$idx/$bad.stderr.txt"
        grep -q "unusable" "$idx/$bad.stderr.txt" || {
            echo "FAIL: $bad side index loaded without a warning (see $idx)" >&2
            return 1
        }
        grep -q '"route": "rescan"' "$idx/$bad.json" || {
            echo "FAIL: $bad side index did not fall back to rescan (see $idx/$bad.json)" >&2
            return 1
        }
        local c_bad
        c_bad=$(sed -n 's/.*"answer": "\([^"]*\)".*/\1/p' "$idx/$bad.json")
        if [[ "$c_bad" != "$c_rsc" ]]; then
            echo "FAIL: $bad fallback answered '$c_bad', rescan truth is '$c_rsc'" >&2
            return 1
        fi
    done
    echo "both damaged indexes rejected, answers served by rescan"

    echo "-- --use-index server: route split matches the admission ledger"
    mkfifo "$idx/stdin"
    local srv_in
    exec {srv_in}<>"$idx/stdin"
    VR_WORKERS=4 timeout 600 ./target/release/visualroad serve \
        --scale 1 --res 96x54 --duration 0.25 --queries Q1,Q2a \
        --engine batch --workers 2 --use-index \
        --max-concurrent 2 --queue-depth 8 --tenant-quota 32 \
        <&"$srv_in" > "$idx/server_stdout.txt" 2> "$idx/server_stderr.txt" &
    local srv_pid=$!
    local addr="" status=0
    for _ in $(seq 1 150); do
        addr=$(sed -n 's/^serving on //p' "$idx/server_stdout.txt")
        [[ -n "$addr" ]] && break
        if ! kill -0 "$srv_pid" 2>/dev/null; then
            break
        fi
        sleep 0.2
    done
    if [[ -z "$addr" ]]; then
        cat "$idx/server_stderr.txt" >&2
        echo "FAIL: --use-index server never announced its address (see $idx)" >&2
        exec {srv_in}>&-
        return 1
    fi
    grep -q "semantic index ready" "$idx/server_stderr.txt" || {
        echo "FAIL: server did not report the semantic index ready (see $idx/server_stderr.txt)" >&2
        exec {srv_in}>&-
        return 1
    }
    ./target/release/stress_test --addr "$addr" \
        --tenants gold:high:2 --requests 10 --queries Q1,S1,S2 \
        --deadline-ms 5000 --p99-bound-ms 10000 --shutdown \
        --out "$idx/stress.json" | tee "$idx/driver.log" || status=$?
    wait "$srv_pid" || status=$?
    exec {srv_in}>&-
    if [[ "$status" -ne 0 ]]; then
        echo "FAIL: stress driver or --use-index server exited nonzero (see $idx)" >&2
        return 1
    fi
    grep -q '"route_index": 0,' "$idx/stress.json" && {
        echo "FAIL: no request was served from the index (see $idx/stress.json)" >&2
        return 1
    }
    echo "index gate OK: deterministic ingest, recall >= 0.9, >= 10x top-k speedup, fail-closed fallback, exact route ledger"
}

run_one() {
    local name="$1"
    local fn="stage_${name//-/_}"
    if ! declare -F "$fn" >/dev/null; then
        echo "ci.sh: unknown stage '$name' (stages: ${STAGES[*]})" >&2
        exit 2
    fi
    mkdir -p "$ART"
    "$fn"
}

if [[ $# -gt 0 ]]; then
    run_one "$1"
    exit 0
fi

# Where a stage leaves its diagnostics, for the summary table. Paths
# are space-free by construction (the summary rows are word-split).
artifact_of() {
    case "$1" in
        determinism)    echo "$ART/determinism" ;;
        chaos)          echo "$ART/chaos" ;;
        alloc-gate)     echo "$ART/alloc/metrics.json" ;;
        obs-gate)       echo "$ART/obs" ;;
        server-gate)    echo "$ART/server" ;;
        index-gate)     echo "$ART/index" ;;
        *)              echo "-" ;;
    esac
}

# Full run: every stage in order, timed, with a final summary table
# that prints even when a stage fails. The bytes column is the on-disk
# size of each stage's artifact tree, measured at print time (so a
# failing run still reports whatever diagnostics it managed to leave).
SUMMARY=()
print_summary() {
    echo
    echo "== CI summary =="
    printf '%-14s %8s  %-6s %10s  %s\n' "stage" "seconds" "status" "bytes" "artifacts"
    local row bytes
    for row in "${SUMMARY[@]}"; do
        # Rows are space-free by construction: stage seconds status path.
        set -- $row
        bytes="-"
        if [[ "$4" != "-" && -e "$4" ]]; then
            bytes=$(du -sb "$4" 2>/dev/null | cut -f1)
        fi
        printf '%-14s %8s  %-6s %10s  %s\n' "$1" "$2" "$3" "${bytes:--}" "$4"
    done
}
trap print_summary EXIT

for stage in "${STAGES[@]}"; do
    echo
    echo "== stage: $stage =="
    t0=$SECONDS
    if bash "$0" "$stage"; then
        SUMMARY+=("$stage $((SECONDS - t0)) PASS $(artifact_of "$stage")")
    else
        SUMMARY+=("$stage $((SECONDS - t0)) FAIL $(artifact_of "$stage")")
        echo "CI FAILED at stage '$stage' (artifacts under $ART)" >&2
        exit 1
    fi
done

echo
echo "CI OK"
