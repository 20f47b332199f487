#!/usr/bin/env bash
# Runs the telemetry-reporting benches and merges their per-binary reports
# into one mcs.bench_telemetry.v1 document (default: BENCH_telemetry.json
# at the repo root) -- the machine-readable perf baseline that
# `mcs_cli bench-diff` regresses future changes against.
#
# Bench discovery: every google-benchmark binary matching
# $BUILD_DIR/bench/perf_* by glob (currently perf_matching,
# perf_mechanisms, perf_payments -- Algorithm-2 payments, batch and
# streaming, on the GreedyRound kernel -- perf_serve, the streaming engine's hot path,
# and perf_serve_latency, the live-telemetry-plane overhead and latency
# quantiles), plus the opted-in plain benches listed in OPT_IN_BENCHES
# (binaries that wire bench/telemetry_scope.hpp).
#
# The google-benchmark binaries run two passes (bench/telemetry_main.hpp):
# an adaptive timing pass honouring the extra benchmark args, whose own
# --benchmark_out JSON timings are captured under $BUILD_DIR/bench_timings/,
# and a pinned single-iteration counter pass that makes the reported work
# counters deterministic run to run.
#
# Usage: scripts/collect_bench.sh [build-dir] [extra benchmark args...]
#   e.g. scripts/collect_bench.sh build --benchmark_min_time=0.05
#   e.g. scripts/collect_bench.sh --benchmark_min_time=0.05   (build dir defaults to 'build')
# Env:
#   MCS_BENCH_OUT=path   merged report destination (default BENCH_telemetry.json);
#                        point it elsewhere to collect a candidate without
#                        overwriting the committed baseline.
set -euo pipefail

cd "$(dirname "$0")/.."
# A leading flag is a benchmark argument, not the build dir: keep it in $@.
if [ $# -ge 1 ] && [ "${1#-}" = "$1" ]; then
  BUILD_DIR="$1"
  shift
else
  BUILD_DIR=build
fi

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found; build first (cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR)" >&2
  exit 1
fi

OUT="${MCS_BENCH_OUT:-BENCH_telemetry.json}"
TIMINGS_DIR="$BUILD_DIR/bench_timings"
mkdir -p "$TIMINGS_DIR"

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

# google-benchmark binaries: discovered by glob, run with benchmark args.
GBENCHES=()
for bin in "$BUILD_DIR"/bench/perf_*; do
  [ -f "$bin" ] && [ -x "$bin" ] && GBENCHES+=("$(basename "$bin")")
done
if [ "${#GBENCHES[@]}" -eq 0 ]; then
  echo "error: no perf_* bench binaries under $BUILD_DIR/bench" >&2
  exit 1
fi

# Every bench the committed baseline covers must be present: a silently
# skipped binary would make the merged report lose keys and bench-diff
# would read the hole as "this bench was deleted", not "the build broke".
EXPECTED_GBENCHES=(perf_arena perf_econ perf_matching perf_mechanisms
                   perf_payments perf_serve perf_serve_latency perf_trace)
for expected in "${EXPECTED_GBENCHES[@]}"; do
  found=0
  for bench in "${GBENCHES[@]}"; do
    [ "$bench" = "$expected" ] && found=1 && break
  done
  if [ "$found" -eq 0 ]; then
    echo "error: expected bench binary '$expected' missing from $BUILD_DIR/bench;" \
         "build it (cmake --build $BUILD_DIR --target $expected) or update" \
         "EXPECTED_GBENCHES in scripts/collect_bench.sh" >&2
    exit 1
  fi
done

# Plain (non-google-benchmark) benches that report telemetry via
# bench/telemetry_scope.hpp; they take no benchmark args.
OPT_IN_BENCHES=(truthfulness_audit baseline_comparison)

for bench in "${GBENCHES[@]}"; do
  echo "##### $bench #####"
  "$BUILD_DIR/bench/$bench" \
      --telemetry-out="$TMP_DIR/$bench.json" \
      --benchmark_out="$TIMINGS_DIR/$bench.json" \
      --benchmark_out_format=json "$@"
done
for bench in "${OPT_IN_BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$bench"
  if [ ! -x "$bin" ]; then
    echo "error: $bin missing or not executable" >&2
    exit 1
  fi
  echo "##### $bench #####"
  "$bin" --telemetry-out="$TMP_DIR/$bench.json"
done

# Merge: one wrapper object with each binary's mcs.telemetry.v1 report as
# a field, in sorted name order so the document is deterministic. Plain
# concatenation keeps this dependency-free.
ALL_BENCHES="$(printf '%s\n' "${GBENCHES[@]}" "${OPT_IN_BENCHES[@]}" | sort)"
{
  printf '{"schema":"mcs.bench_telemetry.v1"'
  for bench in $ALL_BENCHES; do
    printf ',"%s":' "$bench"
    # Each report is a single JSON object followed by a newline.
    tr -d '\n' < "$TMP_DIR/$bench.json"
  done
  printf '}\n'
} > "$OUT"

echo
echo "Merged telemetry written to $OUT (timing JSON under $TIMINGS_DIR/)"
