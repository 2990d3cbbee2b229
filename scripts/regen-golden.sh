#!/usr/bin/env bash
# Regenerate the golden fixtures under test/golden/ (Verilog pretty-printer,
# VCD writer, design s-expression writer, the BDD-check and SAT-check
# fingerprints, Espresso's cube lists, the digests of the bound designs,
# the structural digests of every synthesis pass's output and the `bench
# quick` and `bench all` figure tables).
# Run after an intentional emitter or figure change, then review the diff
# like any other source change.
set -euo pipefail
cd "$(dirname "$0")/.."

mkdir -p test/golden
dune build test/test_io.exe test/test_sat.exe test/test_synth.exe \
  test/test_twolevel.exe test/test_core.exe examples/data/dma.uasm \
  bench/main.exe
GOLDEN_REGEN="$(pwd)/test/golden" ./_build/default/test/test_io.exe test golden
GOLDEN_REGEN="$(pwd)/test/golden" ./_build/default/test/test_sat.exe test equiv
GOLDEN_REGEN="$(pwd)/test/golden" ./_build/default/test/test_synth.exe test symbolic
GOLDEN_REGEN="$(pwd)/test/golden" ./_build/default/test/test_synth.exe test passes
GOLDEN_REGEN="$(pwd)/test/golden" ./_build/default/test/test_twolevel.exe test golden
# The bound-design digests read examples/data/dma.uasm relative to the
# test directory, as under dune runtest.
(cd _build/default/test &&
  GOLDEN_REGEN="$(pwd)/../../../test/golden" ./test_core.exe test golden)
./_build/default/bench/main.exe quick -j 2 --no-cache > test/golden/quick.stdout
./_build/default/bench/main.exe all -j 2 --no-cache > test/golden/all.stdout
echo "regenerated:"
ls -1 test/golden | sed 's/^/  test\/golden\//'
