#!/usr/bin/env bash
# Builds and runs the concurrency-sensitive tests under ThreadSanitizer
# and AddressSanitizer + UndefinedBehaviorSanitizer (the CI job for repos
# without a hosted runner). The address tier compiles with
# -fno-sanitize-recover=undefined, so undefined behaviour aborts the test.
#
#   tests/run_sanitizers.sh [thread|address]...   # default: both
#
# Uses separate build trees (build-tsan/, build-asan/) so sanitized
# objects never mix with the regular build/.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
# builder_test covers the parallel XBUILD candidate-scoring path;
# synopsis_test runs random node splits (the neighbourhood-only edge
# recount) against a brute-force recount;
# obs_test drives concurrent writers through the shared MetricsRegistry;
# trace_test exercises multi-thread span recording, the flight recorder's
# concurrent record/dump paths, and the CAS-loop gauge updates;
# compile_test hammers concurrent Prepare/Execute through the byte-bounded plan
# cache and the compiler's shared expansion cache;
# differential_test drives the whole pipeline through 8-thread batch
# estimation (its runner sets batch_threads = 8), with the sweep size
# reduced below so sanitizer overhead stays in budget;
# faultpoints_test exercises the injected-failure paths (catalog
# hot-swap rollback included) whose error handling rarely runs clean;
# daemon_test floods the event-loop server from concurrent client
# threads — admission shedding, deadline expiry, and drain-under-load
# are exactly the cross-thread handoffs TSan exists to check;
# exec_test runs the executor differential sweep (stateless operators
# over a shared immutable StreamIndex — ASan checks the range probes);
# plan_test hammers Session::Plan and Prepare from concurrent threads
# (the planner's cardinality calls ride the service's plan cache,
# the same shared state compile_test covers, now under a second caller);
# xsk3_test maps sketch files, hot-swaps catalog generations (each with
# its own service and plan cache) and republishes a file while mapped;
# net_test feeds the HTTP, JSON and XSKB parsers truncated and hostile
# payloads — the bytes strangers send, where ASan+UBSan catch an
# off-by-one.
TARGETS=(service_test estimator_test builder_test synopsis_test obs_test
         trace_test compile_test faultpoints_test daemon_test exec_test
         plan_test xsk3_test net_test differential_test)
MODES=("${@:-thread address}")

for MODE in ${MODES[@]}; do
  case "$MODE" in
    thread)  BUILD="$ROOT/build-tsan" ;;
    address) BUILD="$ROOT/build-asan" ;;
    *) echo "unknown sanitizer '$MODE' (want thread|address)" >&2; exit 2 ;;
  esac
  echo "=== $MODE sanitizer ==="
  cmake -B "$BUILD" -S "$ROOT" -DXSKETCH_SANITIZE="$MODE" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$BUILD" -j"$(nproc)" --target "${TARGETS[@]}"
  for t in "${TARGETS[@]}"; do
    echo "--- $t ($MODE) ---"
    if [ "$t" = differential_test ]; then
      XSKETCH_DIFF_DOCS=1 XSKETCH_DIFF_QUERIES=8 "$BUILD/tests/$t"
    else
      "$BUILD/tests/$t"
    fi
  done
done
echo "all sanitizer runs passed"
