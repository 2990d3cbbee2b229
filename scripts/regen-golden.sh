#!/usr/bin/env bash
# Regenerate the golden fixtures under test/golden/ (Verilog pretty-printer,
# VCD writer, design s-expression writer, the BDD-check and SAT-check
# fingerprints, Espresso's cube lists, the digests of the bound designs,
# the structural digests and mapper reports of every synthesis pass's
# output, the `bench quick` and `bench all` figure tables, and the `bench
# quick` counter/gauge rows with the span name/count columns).
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
# Keep this awk in step with pinned_rows in scripts/obs-smoke.sh.
./_build/default/bench/main.exe quick -j 1 --no-cache --metrics 2>&1 >/dev/null |
  awk '/^metric /{on=1} /^span /{on=2} on==1 {print} on==2 {print $1, $2}' \
    > test/golden/quick.metrics
echo "regenerated:"
ls -1 test/golden | sed 's/^/  test\/golden\//'
