#!/usr/bin/env bash
# Build the controller-flow benchmark from source and run one workload.
#
#   bash perfbench/run.sh --workload sweep|pctrl|check|verify|fault \
#        --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout: it needs the repository's dune
# project and libraries. The build stays inside the checkout (`--root .`,
# no shared dune cache). Build output goes to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a repository checkout" >&2
  exit 2
fi

DUNE_CACHE=disabled dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
