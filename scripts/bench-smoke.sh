#!/usr/bin/env bash
# Simulation-kernel smoke: run the scalar-vs-packed microbench on a tiny
# repetition budget, assert the packed/scalar agreement check passed, and
# leave BENCH_sim.json in the repo root for CI to upload as an artifact.
# The microbench itself exits non-zero if any lane disagrees with the
# scalar oracle, so this script is primarily a freshness + sanity gate on
# the emitted baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bench/main.exe
exe=./_build/default/bench/main.exe

rm -f BENCH_sim.json
out=$(mktemp) && err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT

"$exe" microbench --sim-reps 2 > "$out" 2> "$err"
cat "$out"

# The microbench submits no synthesis job, so no engine table.
if grep -q 'jobs submitted' "$err"; then
  echo "error: microbench printed an empty engine table" >&2
  exit 1
fi

[ -f BENCH_sim.json ] || { echo "error: BENCH_sim.json not written" >&2; exit 1; }
grep -q '"agreement":"ok"' BENCH_sim.json || {
  echo "error: packed/scalar agreement not ok in BENCH_sim.json" >&2
  exit 1
}
if grep -q 'FAIL' "$out"; then
  echo "error: microbench reported a failure" >&2
  exit 1
fi
# The baseline must carry a throughput number for every benched design.
for design in pctrl fig5-table-256x8 fig6-fsm16; do
  grep -q "\"design\":\"$design\"" BENCH_sim.json || {
    echo "error: $design missing from BENCH_sim.json" >&2
    exit 1
  }
done
echo "bench smoke OK: agreement ok, BENCH_sim.json written"
