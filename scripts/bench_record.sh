#!/usr/bin/env bash
# Snapshots the perf benches into a tracked BENCH_<n>.json so the
# performance trajectory is visible PR over PR (ROADMAP: "no BENCH_*.json
# checked in yet").
#
#   scripts/bench_record.sh [--out N] [--build DIR]
#
# Runs bench/perf_batch, bench/perf_plan, bench/perf_build and
# bench/perf_synthetic from an existing build tree (default: build/) with pinned, recorded scale knobs
# (override via the usual XS_BENCH_* environment variables — whatever is
# in effect is written into the snapshot, so two snapshots are comparable
# iff their "env" blocks match). Output goes to BENCH_<n>.json in the repo
# root, where <n> is the first unused index unless --out is given.
#
# The JSON keeps both the raw bench stdout (so nothing is lost to parsing)
# and structured rows extracted with awk (so diffs and scripts can read
# q/s without re-parsing free text).

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build"
OUT_INDEX=""
while [ $# -gt 0 ]; do
  case "$1" in
    --out)   OUT_INDEX="$2"; shift 2 ;;
    --build) BUILD="$2"; shift 2 ;;
    *) echo "usage: $0 [--out N] [--build DIR]" >&2; exit 2 ;;
  esac
done

for bin in perf_batch perf_plan perf_build perf_coldload perf_daemon \
           perf_synthetic; do
  if [ ! -x "$BUILD/bench/$bin" ]; then
    echo "missing $BUILD/bench/$bin — build first (cmake --build $BUILD)" >&2
    exit 1
  fi
done

# Pinned defaults: small enough to record on a laptop/CI box, big enough
# that q/s numbers are stable to ~10%. Override via the environment.
export XS_BENCH_SCALE="${XS_BENCH_SCALE:-0.1}"
export XS_BENCH_QUERIES="${XS_BENCH_QUERIES:-400}"
export XS_BENCH_BATCH_REPEATS="${XS_BENCH_BATCH_REPEATS:-3}"
export XS_BENCH_BUDGET="${XS_BENCH_BUDGET:-16}"
export XS_BENCH_SYN_ELEMS="${XS_BENCH_SYN_ELEMS:-1000}"
export XS_BENCH_SYN_QUERIES="${XS_BENCH_SYN_QUERIES:-100}"
export XS_BENCH_DAEMON_REQUESTS="${XS_BENCH_DAEMON_REQUESTS:-40}"

if [ -z "$OUT_INDEX" ]; then
  OUT_INDEX=0
  while [ -e "$ROOT/BENCH_${OUT_INDEX}.json" ]; do
    OUT_INDEX=$((OUT_INDEX + 1))
  done
fi
OUT="$ROOT/BENCH_${OUT_INDEX}.json"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "recording perf_batch ..." >&2
"$BUILD/bench/perf_batch" > "$TMP/perf_batch.txt"
echo "recording perf_plan ..." >&2
"$BUILD/bench/perf_plan" > "$TMP/perf_plan.txt"
echo "recording perf_build ..." >&2
"$BUILD/bench/perf_build" > "$TMP/perf_build.txt"
echo "recording perf_coldload ..." >&2
"$BUILD/bench/perf_coldload" > "$TMP/perf_coldload.txt"
echo "recording perf_daemon ..." >&2
"$BUILD/bench/perf_daemon" > "$TMP/perf_daemon.txt"
echo "recording perf_synthetic ..." >&2
"$BUILD/bench/perf_synthetic" > "$TMP/perf_synthetic.txt"

# Emits the file's lines as a JSON string array (minimal escaping: the
# benches print plain ASCII).
raw_json() {
  awk 'BEGIN { printf "[" }
       { gsub(/\\/, "\\\\"); gsub(/"/, "\\\"");
         printf "%s\n      \"%s\"", (NR > 1 ? "," : ""), $0 }
       END { printf "\n    ]" }' "$1"
}

# perf_batch rows:
#   sequential         373229 q/s   (baseline)
#   compiled            ... q/s    3.10x   (prepare+execute, cold cache)
#    1 threads          ... q/s    0.59x   p50 2.3 us  p95 9.5 us ...
#   traced              ... q/s    1.80x   sampled 1.0, 4 threads ...
batch_rows() {
  awk '
    /^sequential/ { printf "%s\n      {\"row\": \"sequential\", \"qps\": %s}", sep, $2; sep="," }
    /^compiled/   { printf "%s\n      {\"row\": \"compiled\", \"qps\": %s, \"speedup\": %s}", sep, $2, substr($4, 1, length($4)-1); sep="," }
    /^traced /    { printf "%s\n      {\"row\": \"traced\", \"qps\": %s, \"speedup\": %s}", sep, $2, substr($4, 1, length($4)-1); sep="," }
    /^ *[0-9]+ threads/ && / q\/s / {
      printf "%s\n      {\"row\": \"%s threads\", \"qps\": %s, \"speedup\": %s, \"p50_us\": %s, \"p95_us\": %s}", sep, $1, $3, substr($5, 1, length($5)-1), $7, $10; sep=","
    }
  ' "$1"
}

# perf_plan rows (per [P] / [P+V] workload section):
#   estimate  logical        13385    1.00x   plan 3.5 ms   exec 3.5 ms ...
#   routed    76/100 holistic   mixed 11.8 ms   all-binary ...
plan_rows() {
  awk '
    /^\[/ { wl = substr($1, 2, length($1) - 2) }
    /^ +(estimate|exact|naive) +logical/ {
      printf "%s\n      {\"workload\": \"%s\", \"strategy\": \"%s\", \"logical_rows\": %s, \"vs_exact\": %s}", sep, wl, $1, $3, substr($4, 1, length($4)-1); sep=","
    }
    /^ +routed/ {
      split($2, a, "/");
      printf "%s\n      {\"workload\": \"%s\", \"strategy\": \"routed\", \"holistic_chosen\": %s, \"queries\": %s, \"mixed_ms\": %s}", sep, wl, a[1], a[2], $5; sep=","
    }
  ' "$1"
}

# perf_build rows:
#  1 threads       1234 ms    1.00x     12 refinements   scoring p50 ...
build_rows() {
  awk '
    /threads/ && / ms / {
      printf "%s\n      {\"threads\": %s, \"ms\": %s, \"speedup\": %s, \"refinements\": %s}", sep, $1, $3, substr($5, 1, length($5)-1), $6; sep=","
    }
  ' "$1"
}

# perf_coldload rows:
#   coldload xsk3      0.020 ms       17.9 KB file   bit-identical
coldload_rows() {
  awk '
    /^coldload xsk3/ {
      printf "%s\n      {\"format\": \"xsk3\", \"ms\": %s, \"file_kb\": %s}", sep, $3, $5; sep=","
    }
  ' "$1"
}

# perf_daemon rows:
#   daemon unloaded   p50    0.021 ms   p99    0.196 ms
#   daemon 2x-sat     p50    0.378 ms   p99    1.394 ms   shed  14.2%  ...
daemon_rows() {
  awk '
    /^daemon unloaded/ {
      printf "%s\n      {\"row\": \"unloaded\", \"p50_ms\": %s, \"p99_ms\": %s}", sep, $4, $7; sep=","
    }
    /^daemon 2x-sat/ {
      printf "%s\n      {\"row\": \"2x_saturation\", \"p50_ms\": %s, \"p99_ms\": %s, \"shed_pct\": %s}", sep, $4, $7, substr($10, 1, length($10)-1); sep=","
    }
  ' "$1"
}

# perf_synthetic rows:
#   uniform      1.234     0.567     98765
synth_rows() {
  awk '
    NF == 4 && $2 ~ /^[0-9.]+$/ && $3 ~ /^[0-9.]+$/ && $4 ~ /^[0-9.]+$/ {
      printf "%s\n      {\"shape\": \"%s\", \"coarsest_err\": %s, \"refined_err\": %s, \"est_qps\": %s}", sep, $1, $2, $3, $4; sep=","
    }
  ' "$1"
}

GIT_REV="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"

{
  echo "{"
  echo "  \"index\": ${OUT_INDEX},"
  echo "  \"git\": \"${GIT_REV}\","
  echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
  echo "  \"host\": {\"machine\": \"$(uname -m)\", \"hardware_threads\": $(nproc)},"
  echo "  \"env\": {"
  echo "    \"XS_BENCH_SCALE\": \"${XS_BENCH_SCALE}\","
  echo "    \"XS_BENCH_QUERIES\": \"${XS_BENCH_QUERIES}\","
  echo "    \"XS_BENCH_BATCH_REPEATS\": \"${XS_BENCH_BATCH_REPEATS}\","
  echo "    \"XS_BENCH_BUDGET\": \"${XS_BENCH_BUDGET}\","
  echo "    \"XS_BENCH_SYN_ELEMS\": \"${XS_BENCH_SYN_ELEMS}\","
  echo "    \"XS_BENCH_SYN_QUERIES\": \"${XS_BENCH_SYN_QUERIES}\","
  echo "    \"XS_BENCH_DAEMON_REQUESTS\": \"${XS_BENCH_DAEMON_REQUESTS}\""
  echo "  },"
  echo "  \"perf_batch\": {"
  echo "    \"raw\": $(raw_json "$TMP/perf_batch.txt"),"
  echo "    \"rows\": [$(batch_rows "$TMP/perf_batch.txt")"
  echo "    ]"
  echo "  },"
  echo "  \"perf_plan\": {"
  echo "    \"raw\": $(raw_json "$TMP/perf_plan.txt"),"
  echo "    \"rows\": [$(plan_rows "$TMP/perf_plan.txt")"
  echo "    ]"
  echo "  },"
  echo "  \"perf_build\": {"
  echo "    \"raw\": $(raw_json "$TMP/perf_build.txt"),"
  echo "    \"rows\": [$(build_rows "$TMP/perf_build.txt")"
  echo "    ]"
  echo "  },"
  echo "  \"perf_coldload\": {"
  echo "    \"raw\": $(raw_json "$TMP/perf_coldload.txt"),"
  echo "    \"rows\": [$(coldload_rows "$TMP/perf_coldload.txt")"
  echo "    ]"
  echo "  },"
  echo "  \"perf_daemon\": {"
  echo "    \"raw\": $(raw_json "$TMP/perf_daemon.txt"),"
  echo "    \"rows\": [$(daemon_rows "$TMP/perf_daemon.txt")"
  echo "    ]"
  echo "  },"
  echo "  \"perf_synthetic\": {"
  echo "    \"raw\": $(raw_json "$TMP/perf_synthetic.txt"),"
  echo "    \"rows\": [$(synth_rows "$TMP/perf_synthetic.txt")"
  echo "    ]"
  echo "  }"
  echo "}"
} > "$OUT"

echo "wrote $OUT" >&2
