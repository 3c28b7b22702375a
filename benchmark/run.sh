#!/usr/bin/env bash
# Single entry point of the benchmark.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--record FILE]
#
# Builds ./benchmark and ./cmd/worker once, before any timer starts, then
# runs the named workload — or, with no --workload, all five strictly one
# after another — and leaves benchmark/out/<workload>.json (traced:
# <workload>.trace.json and .trace.jsonl) behind. The last line of
# standard output is the contract's JSON object of the last workload run;
# the per-metric summary goes to standard error.
#
# Everything this script writes stays inside the checkout: build cache and
# binaries under .bench_build/, results under benchmark/out/.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
build=$root/.bench_build
out=$root/benchmark/out

workload=""
pass=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload|-workload) workload=$2; shift 2 ;;
    --trace|-trace)
      # "--trace" alone means a traced run; the driver passes "--trace 0|1".
      if [ $# -ge 2 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        pass+=(--trace "$2"); shift 2
      else
        pass+=(--trace 1); shift
      fi ;;
    *) pass+=("$1"); shift ;;
  esac
done

mkdir -p "$build/bin" "$out"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTOOLCHAIN=local
go build -o "$build/bin/benchmark" ./benchmark
go build -o "$build/bin/worker" ./cmd/worker

run_one() {
  "$build/bin/benchmark" --workload "$1" --worker "$build/bin/worker" --out "$out" ${pass[@]+"${pass[@]}"}
}

if [ -n "$workload" ]; then
  run_one "$workload"
  exit
fi
last=""
for w in bulk_nnz dist_inproc dist_tcp serve_write serve_read; do
  last=$(run_one "$w" | tail -n 1)
done
"$build/bin/benchmark" --summary --out "$out" >&2
echo "$last"
