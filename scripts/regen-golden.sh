#!/usr/bin/env bash
# Regenerate the golden fixtures under test/golden/ (Verilog pretty-printer,
# VCD writer, design s-expression writer, the BDD-check and SAT-check
# fingerprints and the `bench quick` and `bench all` figure tables).
# Run after an intentional emitter or figure change, then review the diff
# like any other source change.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p test/golden
dune build test/test_io.exe test/test_sat.exe test/test_synth.exe bench/main.exe
GOLDEN_REGEN="$(pwd)/test/golden" ./_build/default/test/test_io.exe test golden
GOLDEN_REGEN="$(pwd)/test/golden" ./_build/default/test/test_sat.exe test equiv
GOLDEN_REGEN="$(pwd)/test/golden" ./_build/default/test/test_synth.exe test symbolic
./_build/default/bench/main.exe quick -j 2 --no-cache > test/golden/quick.stdout
./_build/default/bench/main.exe all -j 2 --no-cache > test/golden/all.stdout
echo "regenerated:"
ls -1 test/golden | sed 's/^/  test\/golden\//'
