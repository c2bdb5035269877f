#!/usr/bin/env bash
# Run bench_compile_time and record the perf trajectory as JSON at the repo
# root (BENCH_compile_time.json). Extra arguments are passed through to
# google-benchmark, e.g.:
#
#   bench/bench_to_json.sh build --benchmark_filter='BM_PhoenixLogical'
#   bench/bench_to_json.sh build --benchmark_context=note=post-PR2
#
# BM_PhoenixLogicalTraced rows carry per-stage breakdowns as counters
# (stage_ms_group, stage_ms_simplify, stage_ms_order, stage_ms_peephole, ...)
# plus pipeline totals (simplify_candidates, peephole_removed), so the JSON
# records where compile time goes, not just the end-to-end number.
#
# BM_ServiceWarmVsCold rows record both sides of the compile cache: the
# iteration time is the warm cache-hit latency, the cold_ms counter is the
# one-off cold compile for the same program, and warm_speedup = cold/warm.
#
# Every row runs 5 repetitions by default (pass --benchmark_repetitions=N to
# change it) and the JSON keeps only the aggregates: mean, median, stddev, cv
# and mad (median absolute deviation, registered in bench_compile_time.cpp).
# Quote the median with its MAD. The context records `nproc`, the cores the
# run could use, so a record states the host it came from.
#
# The CMake target `bench_to_json` invokes this with the configured build dir.
#
# The checked-in JSON is a perf trajectory, so numbers from unoptimized
# builds would silently poison it: the script reads CMAKE_BUILD_TYPE out of
# the build dir's CMakeCache.txt and refuses anything but Release. Set
# PHOENIX_BENCH_ALLOW_NON_RELEASE=1 to override for local experiments; the
# build type is stamped into the JSON context either way so a poisoned run
# is at least self-identifying.
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
if [[ $# -gt 0 ]]; then shift; fi
out="$repo_root/BENCH_compile_time.json"

build_type="unknown"
cache="$build_dir/CMakeCache.txt"
if [[ -f "$cache" ]]; then
  build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$cache")
  build_type=${build_type:-unset}
fi
if [[ "$build_type" != "Release" &&
      "${PHOENIX_BENCH_ALLOW_NON_RELEASE:-0}" != "1" ]]; then
  echo "error: $build_dir is a '$build_type' build; benchmark JSON must come" >&2
  echo "from a Release build (set PHOENIX_BENCH_ALLOW_NON_RELEASE=1 to" >&2
  echo "override for local experiments)" >&2
  exit 1
fi

"$build_dir/bench/bench_compile_time" \
  --benchmark_out="$out" --benchmark_out_format=json \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
  --benchmark_context=phoenix_build_type="$build_type",nproc="$(nproc)" "$@"
echo "wrote $out (build type: $build_type, nproc: $(nproc))"
