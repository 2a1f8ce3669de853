#!/usr/bin/env bash
# Local CI driver: one command that runs everything the repo considers
# mandatory before a merge.
#
#   scripts/ci_check.sh               # build + tiered ctest + fuzz smoke
#   scripts/ci_check.sh --sanitizers  # additionally run the TSan/ASan
#                                     # matrix (tests/run_sanitizers.sh)
#
# Test tiers are ctest labels (see tests/CMakeLists.txt, bench/):
#   unit          fast deterministic suites
#   differential  the randomized differential oracle sweep
#   bench_smoke   assert-only --smoke pass over the perf benches
#
# After the tiers, perf_batch --delta runs two timing gates: bench_delta
# (the compiled prepared-query path must stay ahead of the interpreted
# estimator on a fixed single-thread workload) and bench_trace (the
# compiled row with tracing instrumentation present but unsampled must
# stay within 2% of the uninstrumented loop; override the budget with
# XS_BENCH_TRACE_MAX_OVERHEAD). perf_plan --delta then gates plan
# quality: join orders picked from XSKETCH estimates must stay within
# 1.2x of true-cardinality plans' summed intermediate-result size
# (override with XS_BENCH_PLAN_MAX_RATIO).
#
# Fuzzers build via -DXSKETCH_FUZZERS=ON (libFuzzer under clang, the
# standalone replay/mutation driver under gcc) and get a short
# deterministic mutation run each — enough to catch error-path
# regressions, not a substitute for long fuzzing.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-ci"
SANITIZERS=0
[ "${1:-}" = "--sanitizers" ] && SANITIZERS=1

echo "=== configure + build (with fuzzers) ==="
cmake -B "$BUILD" -S "$ROOT" -DXSKETCH_FUZZERS=ON > /dev/null
cmake --build "$BUILD" -j"$(nproc)"

for tier in unit differential bench_smoke; do
  echo "=== ctest tier: $tier ==="
  # --timeout is a belt-and-braces global cap on top of the per-test
  # TIMEOUT property: a wedged event loop fails CI instead of hanging it.
  (cd "$BUILD" && ctest -L "$tier" --output-on-failure --timeout 300 \
                        -j"$(nproc)")
done

echo "=== daemon smoke: serve, estimate, drain on SIGTERM ==="
[ -x "$BUILD/src/xsketch_daemon" ] ||
  { echo "ci_check: missing $BUILD/src/xsketch_daemon" >&2; exit 1; }
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
printf '<bib><book><author>a</author><title>t</title></book>%s</bib>' \
    '<book><author>b</author></book><article><title>x</title></article>' \
    > "$SMOKE_DIR/bib.xml"
"$BUILD/examples/xsketch_cli" build "$SMOKE_DIR/bib.xml" \
    "$SMOKE_DIR/bib.xsk3" 8 > /dev/null
# Explain runs on the XSK3 file the daemon serves; the CLI fails when the
# trace does not reproduce the untraced estimate bit for bit.
"$BUILD/examples/xsketch_cli" explain "$SMOKE_DIR/bib.xml" \
    "$SMOKE_DIR/bib.xsk3" "//book[author]/title" > /dev/null ||
  { echo "ci_check: explain on the XSK3 sketch failed" >&2; exit 1; }
# Ephemeral port: the daemon prints "listening on <port>" once ready.
"$BUILD/src/xsketch_daemon" --sketch bib="$SMOKE_DIR/bib.xsk3" --port 0 \
    > "$SMOKE_DIR/daemon.out" 2> "$SMOKE_DIR/daemon.err" &
DAEMON_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^listening on \([0-9]*\)$/\1/p' "$SMOKE_DIR/daemon.out")"
  [ -n "$PORT" ] && break
  kill -0 "$DAEMON_PID" 2> /dev/null ||
    { echo "ci_check: daemon died at startup" >&2;
      cat "$SMOKE_DIR/daemon.err" >&2; exit 1; }
  sleep 0.1
done
[ -n "$PORT" ] || { echo "ci_check: daemon never reported a port" >&2; exit 1; }
curl -fsS "http://127.0.0.1:$PORT/healthz" | grep -q '"status":"ok"' ||
  { echo "ci_check: healthz failed" >&2; exit 1; }
curl -fsS -X POST "http://127.0.0.1:$PORT/estimate" \
     -d '{"doc":"bib","query":"//book"}' | grep -q '"estimate":' ||
  { echo "ci_check: estimate failed" >&2; exit 1; }
kill -TERM "$DAEMON_PID"
DAEMON_STATUS=0
wait "$DAEMON_PID" || DAEMON_STATUS=$?
[ "$DAEMON_STATUS" = 0 ] ||
  { echo "ci_check: daemon exited $DAEMON_STATUS after SIGTERM" >&2
    cat "$SMOKE_DIR/daemon.err" >&2; exit 1; }
grep -q '^drained:' "$SMOKE_DIR/daemon.err" ||
  { echo "ci_check: daemon did not report a clean drain" >&2; exit 1; }
echo "daemon smoke: clean drain ($(grep '^drained:' "$SMOKE_DIR/daemon.err"))"

echo "=== bench gates: bench_trace (tracing overhead) + bench_delta ==="
[ -x "$BUILD/bench/perf_batch" ] ||
  { echo "ci_check: missing $BUILD/bench/perf_batch" >&2; exit 1; }
"$BUILD/bench/perf_batch" --delta

echo "=== bench gate: bench_plan (estimate-driven join orders) ==="
# Estimate-planned twig join orders must stay within 1.2x of the
# true-cardinality plans' summed intermediate-result size on the pinned
# P and P+V workloads (override: XS_BENCH_PLAN_MAX_RATIO).
[ -x "$BUILD/bench/perf_plan" ] ||
  { echo "ci_check: missing $BUILD/bench/perf_plan" >&2; exit 1; }
"$BUILD/bench/perf_plan" --delta

echo "=== fuzz smoke (10s per target) ==="
for f in fuzz_parser fuzz_xpath fuzz_xsk3_load fuzz_http fuzz_json \
         fuzz_wire; do
  corpus="$ROOT/fuzz/corpus/${f#fuzz_}"
  echo "--- $f ---"
  # A missing binary must fail the run, not skip the target silently.
  [ -x "$BUILD/fuzz/$f" ] ||
    { echo "ci_check: missing $BUILD/fuzz/$f" >&2; exit 1; }
  [ -d "$corpus" ] ||
    { echo "ci_check: missing corpus $corpus" >&2; exit 1; }
  "$BUILD/fuzz/$f" -max_total_time=10 -seed=1 "$corpus"
done

if [ "$SANITIZERS" = 1 ]; then
  "$ROOT/tests/run_sanitizers.sh"
fi

echo "ci_check: all green"
