#!/usr/bin/env bash
# SAT equivalence smoke: `ctrlgen equiv --engine both` must certify the
# PCtrl partial evaluation (flexible netlist specialized at the AIG level
# vs the generator's partially evaluated design) in both protocol modes,
# and a seeded microcode mutation must be refuted by both engines with the
# same normalized witness. Any sim/SAT verdict disagreement exits nonzero
# inside ctrlgen itself. Leaves sat-trace.json in the repo root so CI can
# upload the solver's Obs spans/metrics as an artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bin/ctrlgen.exe
exe=./_build/default/bin/ctrlgen.exe

out=$(mktemp) && err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT

# Certification: both modes, both engines, proof required.
for mode in cached uncached; do
  "$exe" equiv --mode "$mode" --engine both --expect equivalent \
    > "$out" 2> "$err"
  grep -q '^sat: proved' "$out"
  echo "sat-smoke: $mode certified"
done

# Negative control: seed 8 flips a dispatch-table bit that manifests
# within a few cycles, so a small BMC bound suffices. Both engines must
# refute, and their normalized witnesses must be the same line.
"$exe" equiv --mode cached --engine both --mutate 8 --frames 6 \
  --expect counterexample --metrics --trace sat-trace.json \
  > "$out" 2> "$err"
sim_witness=$(sed -n 's/^sim: counterexample: //p' "$out")
sat_witness=$(sed -n 's/^sat: counterexample: //p' "$out")
if [ -z "$sim_witness" ] || [ "$sim_witness" != "$sat_witness" ]; then
  echo "error: engines disagree on the mutation witness" >&2
  cat "$out" >&2
  exit 1
fi
echo "sat-smoke: mutation refuted by both engines ($sat_witness)"

# Solver effort must be visible in the observability outputs, and each
# engine call must be one row of the --metrics span table.
grep -q 'sat\.solver\.' "$err"
grep -qE '^equiv\.sim +1 ' "$err"
grep -qE '^equiv\.sat +1 ' "$err"
grep -q '"traceEvents"' sat-trace.json
echo "sat-smoke OK"
