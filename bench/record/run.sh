#!/usr/bin/env bash
# Builds the benchmark of record from this checkout's sources (Release,
# into .bench_build/record) and runs it.
#
#   bench/record/run.sh --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
#       runs one workload; the last stdout line is its JSON summary.
#   bench/record/run.sh --seed <n> [...]
#       runs every workload, each in its own process.
#
# Each run also writes its full record under .bench_build/record/runs
# unless --out names another directory. Exits non-zero when the build
# fails, the recording is refused, or any correctness check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build/record"

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "run.sh: no library sources at $root/src; run from a full checkout" >&2
  exit 2
fi

mkdir -p "$build"
(
  flock 9
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$root/bench/record" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "$build" --target ita_record -j 4 >&2
) 9>"$build/.lock"

args=(--out "$build/runs" "$@")
for arg in "$@"; do
  if [[ "$arg" == --workload || "$arg" == --workload=* ]]; then
    exec "$build/ita_record" "${args[@]}"
  fi
done

status=0
for workload in paper_fig3 zipf_drift_seq flood_burst_s2 churn_durable_s2; do
  "$build/ita_record" --workload "$workload" "${args[@]}" || status=1
done
exit "$status"
