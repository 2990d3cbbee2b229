#!/usr/bin/env bash
# Figure golden: `bench/main.exe quick` stdout (the Fig. 5/6/8/9 tables)
# must match the committed test/golden/quick.stdout byte for byte. An
# intentional change to a figure regenerates it with
# scripts/regen-golden.sh, and the diff is reviewed like source.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bench/main.exe
out=$(mktemp)
trap 'rm -f "$out"' EXIT

./_build/default/bench/main.exe quick -j 2 --no-cache > "$out"

if ! diff -u test/golden/quick.stdout "$out"; then
  echo "error: quick stdout differs from test/golden/quick.stdout" >&2
  exit 1
fi
echo "quick golden OK: stdout identical to test/golden/quick.stdout"
