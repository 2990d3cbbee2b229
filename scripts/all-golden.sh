#!/usr/bin/env bash
# Figure golden for `bench all`: the paper-scale Fig. 5/6/8/9 tables, the
# fault table, the six ablations and the equivbench verdicts must match
# the committed test/golden/all.stdout byte for byte in three runs: cold
# at -j 2, cold at -j 1, and warm from a --cache-dir filled by a first
# pass. Timings go to stderr, so stdout carries none. An intentional
# figure change regenerates the golden with scripts/regen-golden.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bench/main.exe
exe=./_build/default/bench/main.exe

out=$(mktemp) && cache=$(mktemp -d)
trap 'rm -rf "$out" "$cache"' EXIT

check() {
  if ! diff -u test/golden/all.stdout "$out"; then
    echo "error: bench all stdout ($1) differs from test/golden/all.stdout" >&2
    exit 1
  fi
  echo "all-golden: $1 matches"
}

"$exe" all -j 2 --no-cache > "$out" 2> /dev/null
check "cold, -j 2"
"$exe" all -j 1 --cache-dir "$cache" > "$out" 2> /dev/null
check "cold, -j 1"
"$exe" all -j 2 --cache-dir "$cache" > "$out" 2> /dev/null
check "warm cache"
