#!/usr/bin/env bash
#
# Regenerate the committed benchmark baselines in bench/baselines/.
#
# Every bench binary runs at a reduced workload (seconds, not the paper's
# minutes) and writes its canonical RunReport into the output directory.
# The reports' results (pattern counts, C2 fractions, ossub evaluations,
# n_min, ...) are deterministic, and the regression gate holds them to the
# committed baselines exactly:
#
#   tools/make_baselines.sh build bench-out
#   for base in bench/baselines/BENCH_*.json; do
#     ./build/tools/bench_compare "$base" "bench-out/$(basename "$base")"
#   done
#
# Phases and values are timings; bench_compare prints their deltas and
# never gates on them, so the baselines can be regenerated on any machine.
# OSSM_THREADS defaults to 1, the count the committed baselines record;
# a caller may set another count (or OSSM_SIMD / OSSM_STORAGE) to check
# that the results do not move with it. Regenerate all baselines at one
# rev, and only when a change is meant to alter a result.
#
# usage: tools/make_baselines.sh [build_dir] [out_dir]

set -euo pipefail

export OSSM_THREADS=${OSSM_THREADS:-1}

build=${1:-build}
out=${2:-bench/baselines}
mkdir -p "$out"
build_abs=$(cd "$build" && pwd)
out_abs=$(cd "$out" && pwd)

run() {
  local name=$1
  shift
  echo "== $name"
  "$build_abs/bench/$name" "$@" --report="$out_abs/BENCH_$name.json" \
    > /dev/null
}

run fig4_speedup --transactions=8000 --items=300 --repeats=2
run fig5_segmentation_cost --items=300 --repeats=2
run fig6_bubble_list --pages=200 --items=300 --repeats=2
run sec7_dhp --transactions=8000 --items=300 --repeats=2
run pruning --transactions=8000 --items=250 --repeats=3
run ablation_skew --transactions=8000 --items=250 --repeats=2
run ablation_generalized --transactions=8000 --items=250 --repeats=2
run ablation_pagesize --transactions=8000 --items=300 --repeats=2
run ablation_theory --transactions=4000
run kernels --elems=2048
# Smoke scale: --transactions pins the collection instead of auto-sizing it
# to 4x the memory cap (the flagless acceptance run takes minutes).
run storage --transactions=20000 --items=200 --mem-cap-mb=24

# micro writes BENCH_parallel.json into the working directory. The filter
# matches no google-benchmark case on purpose: the baseline captures the
# thread-count sweep (which always runs), not the microbenchmark tables.
echo "== micro (parallel counting sweep)"
(cd "$out_abs" && "$build_abs/bench/micro" \
  --benchmark_filter=NoSuchBenchmark > /dev/null)

echo
echo "baselines written to $out/ (OSSM_THREADS=$OSSM_THREADS):"
ls -1 "$out_abs"
