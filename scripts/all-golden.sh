#!/usr/bin/env bash
# Figure golden for `bench all`: the paper-scale Fig. 5/6/8/9 tables, the
# fault table, the six ablations and the equivbench verdicts must match
# the committed test/golden/all.stdout byte for byte in three runs: cold
# at -j 2, cold at -j 1, and warm from a --cache-dir filled by a first
# pass. Timings go to stderr, so stdout carries none. After the cold
# cached run the cache directory must hold only results.jsonl: one compile
# record per executed job (engine table, stderr) and one site record per
# fault site the run simulated (`fault.sites`, --metrics); the warm run
# must execute no job, simulate no fault site (`fault.campaign.packed_sites`
# and `rtl.eval.instances` read 0; only fault campaigns use Rtl.Eval
# here) and leave that file byte-identical: a cache that silently missed
# would still match. A run that compiles nothing (ablate-twolevel) must
# not create its --cache-dir. An intentional figure change regenerates the
# golden with scripts/regen-golden.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bench/main.exe
exe=./_build/default/bench/main.exe

out=$(mktemp) && err=$(mktemp) && cache=$(mktemp -d) && snap=$(mktemp)
idle=$(mktemp -d)
trap 'rm -rf "$out" "$err" "$cache" "$snap" "$idle"' EXIT

check() {
  if ! diff -u test/golden/all.stdout "$out"; then
    echo "error: bench all stdout ($1) differs from test/golden/all.stdout" >&2
    exit 1
  fi
  echo "all-golden: $1 matches"
}

# engine_row RUN ROW VALUE: the stderr tables of RUN read VALUE in ROW.
engine_row() {
  if ! grep -qE "^$2 +$3\$" "$err"; then
    echo "error: bench all ($1): stderr lacks \"$2 $3\"" >&2
    cat "$err" >&2
    exit 1
  fi
}

"$exe" all -j 2 --no-cache > "$out" 2> /dev/null
check "cold, -j 2"
"$exe" all -j 1 --cache-dir "$cache" --metrics > "$out" 2> "$err"
check "cold, -j 1"
executed=$(awk '/^jobs executed /{print $3}' "$err")
sites=$(awk '$1 == "fault.sites" {print $3}' "$err")
records=$(wc -l < "$cache/results.jsonl")
compiles=$(grep -cE '^\{"k":"[0-9a-f]{32}( netlist)?",' "$cache/results.jsonl")
site_records=$(grep -cE '^\{"k":"[0-9a-f]{32} (none|table:|reg:|stuck:)' \
  "$cache/results.jsonl")
if [ "$(ls -A "$cache")" != results.jsonl ] || [ "$compiles" != "$executed" ] \
  || [ "$site_records" != "$sites" ] \
  || [ "$records" != "$((compiles + site_records))" ]; then
  echo "error: bench all (cold, -j 1): expected only results.jsonl with" \
    "$executed compile and $sites site records in the cache dir, got" \
    "$compiles and $site_records of $records:" >&2
  ls -A "$cache" >&2
  exit 1
fi
cp "$cache/results.jsonl" "$snap"
"$exe" all -j 2 --cache-dir "$cache" --metrics > "$out" 2> "$err"
check "warm cache"
engine_row "warm cache" "jobs executed" 0
engine_row "warm cache" "fault\.campaign\.packed_sites +counter" 0
engine_row "warm cache" "rtl\.eval\.instances +counter" 0
if ! cmp -s "$snap" "$cache/results.jsonl"; then
  echo "error: bench all (warm cache) changed results.jsonl" >&2
  exit 1
fi
echo "all-golden: $compiles compile and $site_records site records," \
  "unchanged by the warm run, which simulated no fault site"

"$exe" ablate-twolevel --cache-dir "$idle/unused" > /dev/null 2>&1
if [ -e "$idle/unused" ]; then
  echo "error: bench ablate-twolevel compiled nothing but created its" \
    "--cache-dir" >&2
  exit 1
fi
echo "all-golden: a run that compiles nothing leaves --cache-dir absent"
