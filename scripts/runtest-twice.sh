#!/usr/bin/env bash
# Determinism gate: two forced runs of the full test suite must produce
# identical output after stripping the few legitimately run-varying
# strings (wall-clock timings and Alcotest run IDs). Every property draws
# its cases from fixed seeds, so the two runs test the same inputs. Catches
# both flaky tests and tests that leak run-dependent state into output.
set -euo pipefail
cd "$(dirname "$0")/.."

normalize() {
  sed -E \
    -e 's/[0-9]+\.[0-9]+s/<time>/g' \
    -e "s/run has ID \`[A-Z0-9]+'/run has ID <id>/g"
}

out1=$(mktemp) && out2=$(mktemp)
trap 'rm -f "$out1" "$out2"' EXIT

# One job at a time: dune prints each suite's output when it finishes, so
# parallel runs would order the suites by finishing time.
dune runtest --force -j 1 2>&1 | normalize > "$out1"
dune runtest --force -j 1 2>&1 | normalize > "$out2"

if ! diff -u "$out1" "$out2"; then
  echo "error: dune runtest output differs between two forced runs" >&2
  exit 1
fi
echo "runtest output stable across two forced runs"
