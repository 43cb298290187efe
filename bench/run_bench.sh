#!/usr/bin/env bash
# Runs the google-benchmark micro-benchmarks and writes BENCH_micro.json
# at the repo root, so the performance trajectory of the hot paths is
# tracked in-tree PR over PR. Extra arguments are forwarded to
# micro_bench (e.g. --benchmark_filter=BM_ExactExpectedCost).
#
#   bench/run_bench.sh [micro_bench args...]
#
# Set BUILD_DIR to reuse an existing build tree (defaults to ./build).

set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-$root/build}"

# Always (re)build so the recorded numbers match the working tree; the
# incremental build is a no-op when nothing changed.
if [[ ! -d "$build" ]]; then
  cmake -B "$build" -S "$root"
fi
cmake --build "$build" -j --target micro_bench

# Provenance recorded into the JSON context (micro_bench main): the
# commit the numbers were measured at — with a -dirty suffix when the
# working tree has uncommitted changes — plus thread count / sizes.
git_sha="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [[ "$git_sha" != unknown && -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]]; then
  git_sha="$git_sha-dirty"
fi
UKC_GIT_SHA="$git_sha" \
"$build/micro_bench" \
  --benchmark_out="$root/BENCH_micro.json" \
  --benchmark_out_format=json \
  "$@"

echo "Wrote $root/BENCH_micro.json"
