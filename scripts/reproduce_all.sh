#!/usr/bin/env bash
# One-shot reproduction: configure, build, run the full test suite, then
# every table/figure/ablation bench, teeing the outputs the repository's
# EXPERIMENTS.md is written against.
#
# Usage: scripts/reproduce_all.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR"

ctest --test-dir "$BUILD_DIR" 2>&1 | tee test_output.txt

for b in "$BUILD_DIR"/bench/*; do
  if [ -x "$b" ] && [ -f "$b" ]; then
    echo
    echo "##### $(basename "$b") #####"
    "$b"
  fi
done 2>&1 | tee bench_output.txt

echo
echo "Done. See test_output.txt and bench_output.txt."
