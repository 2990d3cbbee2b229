#!/usr/bin/env bash
# Observability smoke and figure golden: `bench/main.exe quick` stdout
# (the Fig. 5/6/8/9 tables) must match the committed
# test/golden/quick.stdout byte for byte, the same sweep with
# --trace/--metrics must print the same stdout, and the emitted Chrome
# trace must be valid enough to carry pass spans and the metrics snapshot,
# and the --metrics counter/gauge table must read the same at -j 1 as at
# -j 2. The span table must carry the engine.job, flow.compile and
# power.estimate rows. Proof and minimizer times are spans too:
# `bench equivbench --metrics` must count three equiv.sat spans and
# `bench ablate-twolevel --metrics` nine twolevel.qm and nine
# twolevel.espresso spans. The -j 1 run also writes --json, which must name
# every figure, list no failure and carry the engine counts.
# The counter/gauge rows and the span name/count columns of the -j 1 run
# must match test/golden/quick.metrics; span seconds are not pinned.
# An intentional change to a figure regenerates the golden with
# scripts/regen-golden.sh, and the diff is reviewed like source. Leaves
# trace.json in the repo root for CI to upload as an artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bench/main.exe
exe=./_build/default/bench/main.exe

plain=$(mktemp) && plain_err=$(mktemp) && traced=$(mktemp) && err=$(mktemp)
serial=$(mktemp) && serial_err=$(mktemp) && json=$(mktemp)
trap 'rm -f "$plain" "$plain_err" "$traced" "$err" "$serial" "$serial_err" "$json"' EXIT

# --no-cache so the traced run actually executes the synthesis passes
# rather than replaying engine cache hits.
"$exe" quick -j 2 --no-cache > "$plain" 2> "$plain_err"
"$exe" quick -j 2 --no-cache --trace trace.json --metrics > "$traced" 2> "$err"

if ! diff -u test/golden/quick.stdout "$plain"; then
  echo "error: quick stdout differs from test/golden/quick.stdout" >&2
  exit 1
fi
# A run that submitted synthesis jobs reports the engine table on stderr.
grep -q 'jobs submitted' "$plain_err"

if ! diff -u "$plain" "$traced"; then
  echo "error: stdout changed when observability was enabled" >&2
  exit 1
fi

grep -q '"traceEvents"' trace.json
grep -q '"flow.compile"' trace.json
grep -q '"metrics"' trace.json
grep -q 'engine\.pool\.jobs' "$err"
grep -q 'synth\.flow\.' "$err"

# Metrics count work, so the whole counter/gauge table must not depend on
# the number of worker domains. The engine table before it and the span
# time table after it hold wall times and are left out.
# The same run writes the --json document: every figure, no failure and
# the engine counts, and the same stdout.
"$exe" quick -j 1 --no-cache --metrics --json "$json" > "$serial" 2> "$serial_err"
if ! diff -u test/golden/quick.stdout "$serial"; then
  echo "error: quick --json stdout differs from test/golden/quick.stdout" >&2
  exit 1
fi
for key in '"figures"' '"fig5"' '"fig6"' '"fig8"' '"fig9"' '"fault"' \
  '"failures":\[\]' '"submitted":'; do
  if ! grep -q "$key" "$json"; then
    echo "error: quick --json output lacks $key" >&2
    exit 1
  fi
done
metric_rows() { awk '/^metric /{on=1} /^span /{on=0} on' "$1"; }
if [ "$(metric_rows "$err" | grep -c '^synth\.collapse\.')" -lt 2 ] ||
  ! diff -u <(metric_rows "$err") <(metric_rows "$serial_err"); then
  echo "error: metrics table differs between -j 2 and -j 1" >&2
  exit 1
fi
if ! diff -u test/golden/quick.metrics \
  <(awk -f scripts/pinned-rows.awk "$serial_err"); then
  echo "error: quick metrics differ from test/golden/quick.metrics" >&2
  exit 1
fi
grep -qE '^span +count +total s +self s' "$err"
grep -qE '^engine\.job ' "$err"
grep -qE '^flow\.compile ' "$err"
# Fig. 9's activity estimates are attributed time of their own.
grep -qE '^power\.estimate ' "$err"

# The SAT proofs and the A2 minimizer calls are timed by spans only.
"$exe" equivbench --metrics > /dev/null 2> "$err"
grep -qE '^equiv\.sat +3 ' "$err"
"$exe" ablate-twolevel --metrics > /dev/null 2> "$err"
grep -qE '^twolevel\.qm +9 ' "$err"
grep -qE '^twolevel\.espresso +9 ' "$err"
echo "observability smoke OK: stdout and metrics match the goldens, trace.json valid, metrics equal at -j 1 and -j 2"
