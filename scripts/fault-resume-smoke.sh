#!/usr/bin/env bash
# Crash-resilience smoke test for `ctrlgen fault`.
#
# For each of two seeded campaigns: run it to completion, then run it
# again with a journal and `--crash-after` so the process kills itself
# mid-run (exit 3), resume it with `--resume` on the same journal, and
# require the resumed stdout to be byte-identical to the uninterrupted
# run. Exercises: JSONL checkpoint journal, torn-run recovery and
# deterministic site ordering under `-j 4`. The second campaign is
# stuck-at on the bound netlist, so the packed pre-pass and the
# multi-domain map run together. A third case resumes that campaign from
# its full journal with the first payload spoiled: the pre-pass must cover
# exactly the sites the batch will run (`--metrics` must count 1 packed
# site, the one whose payload no longer decodes), and stdout must again
# equal the reference. A fourth resumes a `tables` campaign from its full
# journal with `--metrics`: no site is pending, so stdout must equal the
# journaled run's and `rtl.eval.instances` must read 0 (the RTL golden is not
# simulated). A fifth runs a stuck-at campaign twice over one --cache-dir:
# the second run's netlist comes from the engine's journal (its engine
# table must read `jobs executed 0`) and its stdout must equal the first's;
# stuck-at sites are sampled in node order, so this checks that the
# journaled netlist keeps its node ids. Last, a negative
# --sites and a zero --cycles must be refused at parse time, and a journal
# in a missing directory must fail the run with exit 2.
set -euo pipefail
cd "$(dirname "$0")/.."

CTRLGEN=${CTRLGEN:-_build/default/bin/ctrlgen.exe}
if [ ! -x "$CTRLGEN" ]; then
  echo "fault-resume-smoke: building $CTRLGEN" >&2
  dune build bin/ctrlgen.exe
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# check NAME SITES ARGS...: SITES is the campaign's site count.
check() {
  local name=$1 sites=$2
  shift 2
  local args=(fault "$@" --sites "$sites" --cycles 24 -j 4)
  local dir="$workdir/$name"
  mkdir "$dir"

  echo "fault-resume-smoke[$name]: reference run" >&2
  "$CTRLGEN" "${args[@]}" > "$dir/reference.out"

  echo "fault-resume-smoke[$name]: interrupted run (--crash-after 5)" >&2
  local rc=0
  "$CTRLGEN" "${args[@]}" --journal "$dir/journal.jsonl" --crash-after 5 \
    > "$dir/crashed.out" || rc=$?
  if [ "$rc" -ne 3 ]; then
    echo "fault-resume-smoke[$name]: expected exit 3 from --crash-after, got $rc" >&2
    exit 1
  fi
  local lines
  lines=$(wc -l < "$dir/journal.jsonl")
  if [ "$lines" -lt 1 ] || [ "$lines" -ge "$sites" ]; then
    echo "fault-resume-smoke[$name]: journal has $lines lines, expected a partial run" >&2
    exit 1
  fi

  echo "fault-resume-smoke[$name]: resumed run ($lines sites journaled)" >&2
  "$CTRLGEN" "${args[@]}" --journal "$dir/journal.jsonl" \
    --resume "$dir/journal.jsonl" > "$dir/resumed.out"

  if ! cmp -s "$dir/reference.out" "$dir/resumed.out"; then
    echo "fault-resume-smoke[$name]: resumed stdout differs from uninterrupted run:" >&2
    diff "$dir/reference.out" "$dir/resumed.out" >&2 || true
    exit 1
  fi
  echo "fault-resume-smoke[$name]: OK (resumed output byte-identical)" >&2
}

check tables 12 --model tables --seed 3
check stuck 12 --impl bound --model stuck

# The stuck journal is complete now (crashed run plus resumed run).
# Replace its first payload with one that does not decode and resume.
stuck=(fault --impl bound --model stuck --sites 12 --cycles 24 -j 4)
dir="$workdir/stuck"
sed '1s/"v":"[^"]*"/"v":"no such outcome"/' "$dir/journal.jsonl" \
  > "$dir/spoiled.jsonl"
if ! head -n 1 "$dir/spoiled.jsonl" | grep -q '"v":"no such outcome"'; then
  echo "fault-resume-smoke[spoiled]: could not spoil the first journal line" >&2
  exit 1
fi
echo "fault-resume-smoke[spoiled]: resumed run, first payload spoiled" >&2
"$CTRLGEN" "${stuck[@]}" --resume "$dir/spoiled.jsonl" --metrics \
  > "$dir/spoiled.out" 2> "$dir/spoiled.err"
if ! grep -qE '^fault\.campaign\.packed_sites +counter +1$' "$dir/spoiled.err"; then
  echo "fault-resume-smoke[spoiled]: expected exactly 1 packed site:" >&2
  grep 'packed_sites' "$dir/spoiled.err" >&2 || true
  exit 1
fi
if ! cmp -s "$dir/reference.out" "$dir/spoiled.out"; then
  echo "fault-resume-smoke[spoiled]: stdout differs from uninterrupted run:" >&2
  diff "$dir/reference.out" "$dir/spoiled.out" >&2 || true
  exit 1
fi
echo "fault-resume-smoke[spoiled]: OK (bad payload recomputed, output byte-identical)" >&2

# A fully journaled RTL campaign resumes without simulating anything.
full=(fault --model tables --sites 8)
dir="$workdir/full"
mkdir "$dir"
echo "fault-resume-smoke[full]: journaled run, then resume from the full journal" >&2
"$CTRLGEN" "${full[@]}" --journal "$dir/journal.jsonl" > "$dir/reference.out"
"$CTRLGEN" "${full[@]}" --resume "$dir/journal.jsonl" --metrics \
  > "$dir/resumed.out" 2> "$dir/resumed.err"
if ! grep -qE '^rtl\.eval\.instances +counter +0$' "$dir/resumed.err"; then
  echo "fault-resume-smoke[full]: expected 0 RTL simulations:" >&2
  grep 'rtl\.eval\.instances' "$dir/resumed.err" >&2 || true
  exit 1
fi
if ! cmp -s "$dir/reference.out" "$dir/resumed.out"; then
  echo "fault-resume-smoke[full]: stdout differs from the journaled run:" >&2
  diff "$dir/reference.out" "$dir/resumed.out" >&2 || true
  exit 1
fi
echo "fault-resume-smoke[full]: OK (nothing simulated, output byte-identical)" >&2

# A stuck-at campaign on a netlist read back from the engine's journal.
cached=(fault --model stuck --sites 12 --cycles 24 --cache-dir "$workdir/cache")
dir="$workdir/cached"
mkdir "$dir"
echo "fault-resume-smoke[cached]: cold run, then warm from --cache-dir" >&2
"$CTRLGEN" "${cached[@]}" > "$dir/cold.out" 2> /dev/null
"$CTRLGEN" "${cached[@]}" > "$dir/warm.out" 2> "$dir/warm.err"
if ! grep -qE '^jobs executed +0$' "$dir/warm.err"; then
  echo "fault-resume-smoke[cached]: expected the warm run to execute 0 jobs:" >&2
  cat "$dir/warm.err" >&2
  exit 1
fi
if ! cmp -s "$dir/cold.out" "$dir/warm.out"; then
  echo "fault-resume-smoke[cached]: warm stdout differs from the cold run:" >&2
  diff "$dir/cold.out" "$dir/warm.out" >&2 || true
  exit 1
fi
echo "fault-resume-smoke[cached]: OK (journaled netlist, output byte-identical)" >&2

# A negative site count is a usage error (exit 124), not an exhaustive run,
# and so is a zero-cycle stimulus, under which every site reads masked.
for bad in --sites=-1 --cycles=0; do
  rc=0
  "$CTRLGEN" fault "$bad" --model tables > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 124 ]; then
    echo "fault-resume-smoke: expected exit 124 from $bad, got $rc" >&2
    exit 1
  fi
  echo "fault-resume-smoke: OK ($bad rejected)" >&2
done

# A journal that cannot be opened is a run-time error (exit 2) with one
# line naming the path, not an uncaught exception.
rc=0
"$CTRLGEN" fault --model tables --sites 2 --journal "$workdir/missing/j.jsonl" \
  > /dev/null 2> "$workdir/journal.err" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q "$workdir/missing/j.jsonl" "$workdir/journal.err"; then
  echo "fault-resume-smoke: expected exit 2 naming the journal path, got $rc:" >&2
  cat "$workdir/journal.err" >&2
  exit 1
fi
echo "fault-resume-smoke: OK (unwritable --journal exits 2)" >&2
