#!/usr/bin/env bash
# The merge gate: tier-1 verify plus the in-tree static-analysis pass.
# Everything runs offline; no network access is required.
set -euo pipefail

cd "$(dirname "$0")/.."

# Copies the working tree into $1: tracked files and new unignored ones,
# uncommitted edits included, so a gate can patch or build it apart.
copy_worktree() {
    rm -rf "$1"
    mkdir -p "$1"
    git ls-files -z --cached --others --exclude-standard \
        | while IFS= read -r -d '' f; do
            if [[ -e "$f" ]]; then printf '%s\0' "$f"; fi
        done \
        | tar --null -T - -c | tar -x -C "$1"
}

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests: cargo test -q --workspace"
cargo test -q --workspace

echo "==> benchmark unit tests: cargo test -q --manifest-path perfbench/Cargo.toml"
# perfbench is a workspace of its own, so --workspace above skips it;
# its reference checker and generator lattice build on the core and
# serve public APIs, so run them here.
cargo test -q --manifest-path perfbench/Cargo.toml

echo "==> knob inventory: every NANOCOST_* variable the code reads has a README row"
# Each environment variable is one more configuration the gates must
# cover, so the set the code and this script name must equal the set
# README's "Environment variables" table documents: a new variable
# needs a row (and a caller that sets it), a deleted one loses its row.
KNOBS_CODE="$(grep -rhoE 'NANOCOST_[A-Z0-9_]+' crates/*/src crates/*/tests scripts/ci.sh | sort -u)"
KNOBS_DOC="$(sed -n '/^## Environment variables/,/^## /p' README.md \
    | grep -oE '^\| `NANOCOST_[A-Z0-9_]+`' | grep -oE 'NANOCOST_[A-Z0-9_]+' | sort -u)"
if [[ "$KNOBS_CODE" != "$KNOBS_DOC" ]]; then
    echo "ci: FAIL: NANOCOST_* variables in the code differ from README's table" \
        "(< code only, > README only):" >&2
    diff <(echo "$KNOBS_CODE") <(echo "$KNOBS_DOC") >&2 || true
    exit 1
fi

echo "==> clippy: cargo clippy --workspace --all-targets -- -D warnings"
# Clippy holds the generic rules: no aborts (R1's lints) and no console
# writes (R6's) in library code, and exact float compares. The lint
# table is [workspace.lints.clippy] in Cargo.toml, with clippy.toml's
# test exemptions; DESIGN.md section 7 maps each rule to its lints.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> clippy negative gate: seeded violations must fail"
# The inverse check, like the audit's seeded gate below: a copy of this
# tree (its own Cargo.toml and clippy.toml) plus one .expect(, one
# println! and one x == 0.5 in nanocost-units. A clean pass here means a
# lint fell out of the table.
CLIPPY_TREE=target/clippy-seeded
CLIPPY_OUT=target/ci-clippy-seeded.txt
copy_worktree "$CLIPPY_TREE"
patch -s -p1 -d "$CLIPPY_TREE" <scripts/clippy-seeded.patch
if cargo clippy -p nanocost-units --all-targets --manifest-path "$CLIPPY_TREE/Cargo.toml" \
    -- -D warnings >"$CLIPPY_OUT" 2>&1; then
    echo "ci: FAIL: clippy passed the seeded violations" >&2
    cat "$CLIPPY_OUT" >&2
    exit 1
fi
for lint in expect_used print_stdout float_cmp; do
    if ! grep -qF "clippy::$lint" "$CLIPPY_OUT"; then
        echo "ci: FAIL: the seeded violations did not trip clippy::$lint:" >&2
        cat "$CLIPPY_OUT" >&2
        exit 1
    fi
done

echo "==> nanocost-audit --deny --strict-pragmas (budget: 90s)"
# The analyzer is on the merge path, so its wall clock is a gate too:
# a workspace-wide audit (lex, parse, symbol table, dataflow fixpoint)
# that cannot finish inside the budget is a regression in its own right.
AUDIT_T0=$(date +%s)
cargo run -q --release -p nanocost-audit -- --deny --strict-pragmas
AUDIT_T1=$(date +%s)
AUDIT_ELAPSED=$((AUDIT_T1 - AUDIT_T0))
if (( AUDIT_ELAPSED > 90 )); then
    echo "ci: FAIL: nanocost-audit took ${AUDIT_ELAPSED}s (budget 90s)" >&2
    exit 1
fi

echo "==> nanocost-audit negative gate: seeded fixtures must fire"
# The inverse check: run the analyzer over the seeded-bug mini-workspace
# and demand it still reports every rule family and exits nonzero. A
# pass here with an empty report means the analyzer has gone blind.
SEEDED_OUT=target/ci-audit-seeded.txt
if cargo run -q --release -p nanocost-audit -- \
    --root crates/audit/fixtures/seeded --deny >"$SEEDED_OUT" 2>&1; then
    echo "ci: FAIL: audit of the seeded fixture workspace exited 0" >&2
    cat "$SEEDED_OUT" >&2
    exit 1
fi
for rule in R8 R9 R10; do
    if ! grep -q "\[$rule\]" "$SEEDED_OUT"; then
        echo "ci: FAIL: seeded fixtures did not trip $rule:" >&2
        cat "$SEEDED_OUT" >&2
        exit 1
    fi
done

echo "==> timeline smoke: figure4 under NANOCOST_TRACE=jsonl + sampling"
TRACE_OUT=target/ci-trace.jsonl
rm -f "$TRACE_OUT"
NANOCOST_TRACE=jsonl NANOCOST_TRACE_FILE="$TRACE_OUT" NANOCOST_TRACE_SAMPLE=1 \
    cargo run -q --release -p nanocost-bench --bin figure4 >/dev/null
if [[ ! -s "$TRACE_OUT" ]]; then
    echo "ci: FAIL: $TRACE_OUT is missing or empty" >&2
    exit 1
fi
# trace_check enforces schema, span balance, AND per-thread timestamp
# monotonicity (both record order and sample capture times).
cargo run -q --release -p nanocost-trace --bin trace_check -- --summary "$TRACE_OUT"
cargo run -q --release -p nanocost-sentinel --bin trace_profile -- "$TRACE_OUT" >/dev/null
# Windowed metrics view over the back half of the capture must succeed.
cargo run -q --release -p nanocost-sentinel --bin trace_profile -- \
    --since 50% --metrics "$TRACE_OUT" >/dev/null

echo "==> timeline smoke: chrome export carries counter tracks"
CHROME_OUT=target/ci-trace-chrome.json
rm -f "$CHROME_OUT"
NANOCOST_TRACE=chrome NANOCOST_TRACE_FILE="$CHROME_OUT" NANOCOST_TRACE_SAMPLE=1 \
    cargo run -q --release -p nanocost-bench --bin figure4 >/dev/null
if ! grep -q '"ph":"C"' "$CHROME_OUT"; then
    echo "ci: FAIL: $CHROME_OUT has no \"ph\":\"C\" counter-track events" >&2
    exit 1
fi

echo "==> fingerprint gate: Eq.1-7 + Eq.C1-C5 provenance digests per pipeline"
# NANOCOST_BLESS_FINGERPRINTS=1 turns drift into an in-place update of
# FINGERPRINTS.json (use after an intentional model change).
for fig in figure1 figure2 figure3 figure4 node_selection wafer_transition delay_study \
    chiplet_crossover; do
    FP_OUT="target/ci-$fig.jsonl"
    rm -f "$FP_OUT"
    NANOCOST_TRACE=jsonl NANOCOST_TRACE_FILE="$FP_OUT" \
        cargo run -q --release -p nanocost-bench --bin "$fig" >/dev/null
    cargo run -q --release -p nanocost-sentinel --bin fingerprint -- \
        --check "$fig" --file FINGERPRINTS.json "$FP_OUT"
done

echo "==> serve smoke gate: ephemeral server + loadgen mix"
SERVE_LOG=target/ci-serve.log
rm -f "$SERVE_LOG" target/ci-serve-fleet.json target/ci-serve-prov.jsonl
rm -f target/ci-serve-chiplet-prov.jsonl
rm -f target/ci-serve-access.jsonl target/ci-serve-health.json target/ci-serve-exemplar.*.jsonl
cargo build -q --release -p nanocost-serve
NANOCOST_SERVE_TRACE_RING=4096 \
    NANOCOST_SERVE_ACCESS_LOG=target/ci-serve-access.jsonl \
    ./target/release/serve --port 0 --workers 4 >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
# The "listening on" line is the readiness handshake; wait for it.
SERVE_ADDR=""
for _ in $(seq 1 100); do
    SERVE_ADDR="$(sed -n 's/.*listening on //p' "$SERVE_LOG" | head -1)"
    [[ -n "$SERVE_ADDR" ]] && break
    sleep 0.1
done
if [[ -z "$SERVE_ADDR" ]]; then
    echo "ci: FAIL: serve never reported its address" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
# 200 requests across the mix, a quarter diverted to /v1/chiplet: zero
# non-2xx tolerated, and the chiplet cache must report hits (the
# overlapping-grid property; the scenario cache is checked below).
./target/release/loadgen --addr "$SERVE_ADDR" --requests 200 \
    --mix cost,optimum,batch --concurrency 4 \
    --chiplet-share 0.25 --require-chiplet-hits \
    --chiplet-provenance-out target/ci-serve-chiplet-prov.jsonl \
    --provenance-out target/ci-serve-prov.jsonl
# fleet_report reads the live state: it must carry real latency
# quantiles.
if ! cargo run -q --release -p nanocost-sentinel --bin fleet_report -- \
    "$SERVE_ADDR" -o target/ci-serve-fleet.json \
    || ! grep -q '"p50_us"' target/ci-serve-fleet.json \
    || ! grep -q '"p99_us"' target/ci-serve-fleet.json; then
    echo "ci: FAIL: fleet_report is missing latency quantiles" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
# The overlapping grid must hit the scenario cache's mask, report or
# optimum tables.
if ! grep -q '"cache":{"hits":[1-9]' target/ci-serve-fleet.json; then
    echo "ci: FAIL: fleet_report shows zero scenario-cache hits" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
# The per-request provenance replay must be a valid trace capture, and
# the chiplet request's trace must be one too (loadgen already required
# Eq.C provenance inside it before writing the file).
cargo run -q --release -p nanocost-trace --bin trace_check -- target/ci-serve-prov.jsonl
cargo run -q --release -p nanocost-trace --bin trace_check -- target/ci-serve-chiplet-prov.jsonl

echo "==> serve soak gate: elevated concurrency + SLO criteria + exemplar round-trip"
# A heavier burst against the same server: sheds are tolerated (bounded
# queue doing its job) but the shed rate, the client-observed p99, and
# the server's own SLO verdict (fleet_report --health over the one
# replica) must all hold, and every endpoint's p99 exemplar must
# round-trip to a fetchable trace.
./target/release/loadgen --addr "$SERVE_ADDR" --requests 400 \
    --mix cost,optimum,batch,yield --concurrency 16 \
    --allow-shed --max-shed-rate 0.5 --slo-p99-us 1000000 \
    --exemplar-traces target/ci-serve-exemplar
if ! cargo run -q --release -p nanocost-sentinel --bin fleet_report -- \
    "$SERVE_ADDR" --health -o target/ci-serve-health.json; then
    echo "ci: FAIL: the server's SLO verdict is firing after the soak burst" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
# Every fetched exemplar trace must be a trace_check-clean capture with
# request attribution on each record.
EXEMPLARS=0
for cap in target/ci-serve-exemplar.*.jsonl; do
    [[ -e "$cap" ]] || continue
    cargo run -q --release -p nanocost-trace --bin trace_check -- "$cap"
    if grep -vq '"req_id"' "$cap"; then
        echo "ci: FAIL: $cap has records without req_id" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    EXEMPLARS=$((EXEMPLARS + 1))
done
if [[ "$EXEMPLARS" -lt 1 ]]; then
    echo "ci: FAIL: soak produced no exemplar traces" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
# The structured access log must have one JSON record per request.
if [[ ! -s target/ci-serve-access.jsonl ]] \
    || ! grep -q '"endpoint":"cost"' target/ci-serve-access.jsonl \
    || grep -vq '^{"req_id":' target/ci-serve-access.jsonl; then
    echo "ci: FAIL: access log is missing or malformed" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
# SIGTERM must be a clean shutdown (exit 0).
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "ci: FAIL: serve did not exit cleanly on SIGTERM" >&2
    exit 1
fi

echo "==> serve profiling gate: continuous sampler + /v1/profile + profile_diff"
# A second server with the sampling profiler cranked up and metric
# timeline sampling armed: the loadgen burst must leave a non-empty
# /v1/profile report whose stacks attribute work to serve.request, a
# self-diff must be clean, fleet_report's artifact must carry the same
# live profile, and the JSONL capture must carry trace_check-valid
# stack_sample records plus a counter flamegraph that conserves the
# core.optimize.probes total.
PROF_LOG=target/ci-serve-prof.log
PROF_TRACE=target/ci-serve-prof.jsonl
rm -f "$PROF_LOG" "$PROF_TRACE" target/ci-serve-profile.json target/ci-serve-prof-exemplar.*.jsonl
rm -f target/ci-serve-prof-fleet.json
NANOCOST_PROFILE_HZ=500 NANOCOST_TRACE=jsonl NANOCOST_TRACE_FILE="$PROF_TRACE" \
    NANOCOST_TRACE_SAMPLE=1 \
    ./target/release/serve --port 0 --workers 4 >"$PROF_LOG" 2>&1 &
PROF_PID=$!
PROF_ADDR=""
for _ in $(seq 1 100); do
    PROF_ADDR="$(sed -n 's/.*listening on //p' "$PROF_LOG" | head -1)"
    [[ -n "$PROF_ADDR" ]] && break
    sleep 0.1
done
if [[ -z "$PROF_ADDR" ]]; then
    echo "ci: FAIL: profiled serve never reported its address" >&2
    kill "$PROF_PID" 2>/dev/null || true
    exit 1
fi
./target/release/loadgen --addr "$PROF_ADDR" --requests 300 \
    --mix cost,optimum,batch --concurrency 8 \
    --allow-shed --max-shed-rate 0.5 \
    --profile-out target/ci-serve-profile.json \
    --exemplar-traces target/ci-serve-prof-exemplar --max-evicted-exemplars 8
if ! grep -q '"samples":' target/ci-serve-profile.json \
    || ! grep -q 'serve.request' target/ci-serve-profile.json; then
    echo "ci: FAIL: /v1/profile report is empty or missing serve.request frames" >&2
    kill "$PROF_PID" 2>/dev/null || true
    exit 1
fi
# A report diffed against itself must never regress (exit 0).
cargo run -q --release -p nanocost-sentinel --bin profile_diff -- \
    --against target/ci-serve-profile.json target/ci-serve-profile.json >/dev/null
# The live profile reader over the same server must merge the report.
cargo run -q --release -p nanocost-sentinel --bin fleet_report -- \
    "$PROF_ADDR" -o target/ci-serve-prof-fleet.json
if ! grep -q '"profile":{' target/ci-serve-prof-fleet.json \
    || ! grep -q 'serve.request' target/ci-serve-prof-fleet.json; then
    echo "ci: FAIL: fleet_report artifact has no profile with serve.request frames" >&2
    kill "$PROF_PID" 2>/dev/null || true
    exit 1
fi
kill -TERM "$PROF_PID"
if ! wait "$PROF_PID"; then
    echo "ci: FAIL: profiled serve did not exit cleanly on SIGTERM" >&2
    exit 1
fi
# The exported capture must be schema-clean including its stack_sample
# records, and must actually contain some.
PROF_SUMMARY="$(cargo run -q --release -p nanocost-trace --bin trace_check -- --summary "$PROF_TRACE")"
echo "$PROF_SUMMARY"
if ! grep -q 'stack samples: [1-9]' <<<"$PROF_SUMMARY"; then
    echo "ci: FAIL: profiled capture has no stack_sample records" >&2
    exit 1
fi
# Counter samples carry the process-global total, so the counter
# flamegraph's core.optimize.probes deltas must add up to at most the
# flush-time metric record (less only when a buffer decimated), and to
# more than zero: the optimum requests did probe.
PROBES_FOLDED="$(cargo run -q --release -p nanocost-sentinel --bin trace_profile -- \
    --metrics "$PROF_TRACE" | awk '$1 ~ /;core\.optimize\.probes$/ {s += $2} END {print s + 0}')"
PROBES_TOTAL="$(grep '"type":"metric","name":"core.optimize.probes"' "$PROF_TRACE" \
    | grep -o '"value":[0-9]*' | cut -d: -f2)"
if [[ -z "$PROBES_TOTAL" || "$PROBES_FOLDED" -le 0 || "$PROBES_FOLDED" -gt "$PROBES_TOTAL" ]]; then
    echo "ci: FAIL: counter flamegraph sums core.optimize.probes to $PROBES_FOLDED," \
        "the capture's metric record says ${PROBES_TOTAL:-nothing}" >&2
    exit 1
fi

echo "==> fleet federation gate: two labeled replicas + consistent-hash loadgen + fleet_report"
# Two replicas labeled via NANOCOST_REPLICA, driven through loadgen's
# consistent-hash ring, then federated: the merged requests_total must
# exactly equal the sum of the per-replica raw scrapes (model requests
# alone move that counter, so scrape order cannot skew it), --health
# must agree with the healthy replicas, and --reconcile re-proves the
# merge invariants (totals == sums, fleet quantiles inside the
# per-replica envelope) against the live scrapes.
FLEET_A_LOG=target/ci-fleet-a.log
FLEET_B_LOG=target/ci-fleet-b.log
rm -f "$FLEET_A_LOG" "$FLEET_B_LOG" \
    target/ci-fleet.json target/ci-fleet-a.json target/ci-fleet-b.json
NANOCOST_REPLICA=a ./target/release/serve --port 0 --workers 2 >"$FLEET_A_LOG" 2>&1 &
FLEET_A_PID=$!
NANOCOST_REPLICA=b ./target/release/serve --port 0 --workers 2 >"$FLEET_B_LOG" 2>&1 &
FLEET_B_PID=$!
fleet_fail() {
    echo "ci: FAIL: $1" >&2
    kill "$FLEET_A_PID" "$FLEET_B_PID" 2>/dev/null || true
    exit 1
}
FLEET_A_ADDR=""
FLEET_B_ADDR=""
for _ in $(seq 1 100); do
    FLEET_A_ADDR="$(sed -n 's/.*listening on //p' "$FLEET_A_LOG" | head -1)"
    FLEET_B_ADDR="$(sed -n 's/.*listening on //p' "$FLEET_B_LOG" | head -1)"
    [[ -n "$FLEET_A_ADDR" && -n "$FLEET_B_ADDR" ]] && break
    sleep 0.1
done
[[ -n "$FLEET_A_ADDR" && -n "$FLEET_B_ADDR" ]] \
    || fleet_fail "a fleet replica never reported its address"
./target/release/loadgen --replica "$FLEET_A_ADDR" --replica "$FLEET_B_ADDR" \
    --requests 200 --mix cost,optimum,batch --concurrency 4 \
    || fleet_fail "fleet loadgen failed"
# Per-replica ground truth first (single-target fleet_report), then the
# federated artifact over both.
cargo run -q --release -p nanocost-sentinel --bin fleet_report -- \
    "$FLEET_A_ADDR" -o target/ci-fleet-a.json \
    || fleet_fail "replica-a raw scrape failed"
cargo run -q --release -p nanocost-sentinel --bin fleet_report -- \
    "$FLEET_B_ADDR" -o target/ci-fleet-b.json \
    || fleet_fail "replica-b raw scrape failed"
cargo run -q --release -p nanocost-sentinel --bin fleet_report -- \
    "$FLEET_A_ADDR" "$FLEET_B_ADDR" --health --reconcile \
    -o target/ci-fleet.json \
    || fleet_fail "federated fleet_report --health --reconcile failed"
fleet_requests() { grep -o '"requests_total":[0-9]*' "$1" | head -1 | cut -d: -f2; }
FLEET_N="$(fleet_requests target/ci-fleet.json)"
FLEET_A_N="$(fleet_requests target/ci-fleet-a.json)"
FLEET_B_N="$(fleet_requests target/ci-fleet-b.json)"
if [[ "$FLEET_N" -ne $((FLEET_A_N + FLEET_B_N)) || "$FLEET_N" -ne 200 ]]; then
    fleet_fail "federated requests_total $FLEET_N != ${FLEET_A_N}+${FLEET_B_N} (drove 200)"
fi
if [[ "$FLEET_A_N" -lt 1 || "$FLEET_B_N" -lt 1 ]]; then
    fleet_fail "routing starved a replica (a=$FLEET_A_N b=$FLEET_B_N)"
fi
grep -q '"replicas":\["a","b"\]' target/ci-fleet.json \
    || fleet_fail "fleet artifact is missing the NANOCOST_REPLICA labels"
# The fleet view carries the per-replica rows a live reader needs:
# utilization per replica, each endpoint's replica-tagged p99
# exemplar, and the slowest-vs-fastest replica p99 skew.
grep -q '"utilization":\[{"replica":"a"' target/ci-fleet.json \
    || fleet_fail "fleet artifact has no per-replica utilization rows"
grep -q '"p99_exemplar":{"replica":' target/ci-fleet.json \
    || fleet_fail "fleet artifact has no replica-tagged p99 exemplar"
grep -q '"skew":{' target/ci-fleet.json \
    || fleet_fail "fleet artifact has no per-endpoint p99 skew"
kill -TERM "$FLEET_A_PID" "$FLEET_B_PID"
wait "$FLEET_A_PID" || fleet_fail "replica a did not exit cleanly on SIGTERM"
wait "$FLEET_B_PID" || fleet_fail "replica b did not exit cleanly on SIGTERM"

if [[ "${NANOCOST_SKIP_PERF_GATE:-0}" != "1" ]]; then
    echo "==> perf gate: microbench suite, paired with the parent commit"
    # The change is judged against its parent on the same host, so host
    # speed cancels out. The parent is HEAD when the tree has uncommitted
    # changes (they are the change), else HEAD^. The change builds from a
    # copy of the working tree at target/perf-change, so every side is a
    # clean tree in its own target dir at a path of the same length, and
    # the sides differ only in their code. A third copy, the parent plus
    # a seeded eq.-4 slowdown, runs in the same interleaved loop and
    # must be flagged, or the gate has gone blind. Each side's
    # rounds append to one capture, which bench_diff pools per bench.
    # NANOCOST_SKIP_PERF_GATE=1 skips this block entirely.
    # A round's samples are correlated (the host drifts between states
    # over seconds), so rounds, not samples, average the host out: on
    # a 2-vCPU VM five rounds flaked once in five runs, ten held in
    # four of four. On a flake raise the rounds, not the threshold.
    PERF_ROUNDS=10
    PERF_T0=$(date +%s)
    if [[ -n "$(git status --porcelain)" ]]; then PARENT=HEAD; else PARENT=HEAD^; fi
    PARENT_SHA="$(git rev-parse --short "$PARENT")"
    rm -rf target/perf-parent target/perf-seeded
    for tree in target/perf-parent target/perf-seeded; do
        mkdir -p "$tree"
        git archive "$PARENT" | tar -x -C "$tree"
    done
    patch -s -p1 -d target/perf-seeded <scripts/perf-seeded-slowdown.patch
    copy_worktree target/perf-change
    # Absolute paths: cargo runs bench targets with cwd = the package
    # dir. Each tree builds in its own target dir inside the tree.
    declare -A PERF_TREE=([parent]="$PWD/target/perf-parent" \
        [change]="$PWD/target/perf-change" [seeded]="$PWD/target/perf-seeded")
    for side in parent change seeded; do
        rm -f "target/ci-bench-$side.json"
        cargo bench -q --no-run -p nanocost-bench \
            --manifest-path "${PERF_TREE[$side]}/Cargo.toml"
    done
    for round in $(seq 1 "$PERF_ROUNDS"); do
        # Alternate which side runs first, so no side always follows
        # the same neighbour.
        SIDES=(parent change seeded)
        (( round % 2 == 0 )) && SIDES=(seeded change parent)
        echo "perf gate: round $round/$PERF_ROUNDS: ${SIDES[*]} (parent is $PARENT_SHA)"
        for side in "${SIDES[@]}"; do
            NANOCOST_BENCH_JSON="$PWD/target/ci-bench-$side.json" cargo bench -q \
                -p nanocost-bench --manifest-path "${PERF_TREE[$side]}/Cargo.toml" >/dev/null
        done
    done
    # bench_diff: 0 = no regression, 1 = regressed, 2 = usage or I/O.
    perf_diff() {
        local code=0
        cargo run -q --release -p nanocost-sentinel --bin bench_diff -- \
            target/ci-bench-parent.json "target/ci-bench-$1.json" --threshold 0.5 \
            >"target/ci-bench-$1-diff.txt" || code=$?
        grep -E ' regressed$|^[0-9]+ benchmarks:' "target/ci-bench-$1-diff.txt" \
            | sed "s/^/perf gate: $1: /"
        return "$code"
    }
    CHANGE_CODE=0
    perf_diff change || CHANGE_CODE=$?
    SEEDED_CODE=0
    perf_diff seeded || SEEDED_CODE=$?
    echo "perf gate: $((PERF_ROUNDS * 3)) suite runs in $(($(date +%s) - PERF_T0))s"
    if [[ "$CHANGE_CODE" -ne 0 ]]; then
        echo "ci: FAIL: the change regressed against parent $PARENT_SHA" \
            "(bench_diff exit $CHANGE_CODE):" >&2
        cat target/ci-bench-change-diff.txt >&2
        exit 1
    fi
    if [[ "$SEEDED_CODE" -ne 1 ]]; then
        echo "ci: FAIL: the perf gate did not flag the seeded slowdown" \
            "(bench_diff exit $SEEDED_CODE):" >&2
        cat target/ci-bench-seeded-diff.txt >&2
        exit 1
    fi
else
    echo "==> perf gate: skipped (NANOCOST_SKIP_PERF_GATE=1)"
fi

echo "ci: all gates passed"
