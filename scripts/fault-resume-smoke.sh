#!/usr/bin/env bash
# Crash-resilience smoke test for `ctrlgen fault` over --cache-dir, where
# the engine's results journal stores one record per classified site.
#
# For each of two seeded campaigns: run it to completion without a store,
# then run it over a fresh --cache-dir with `--crash-after` so the process
# kills itself mid-run (exit 3), rerun it over the same directory, and
# require the resumed stdout to be byte-identical to the uninterrupted
# run. Exercises: the stored site records, torn-run recovery and
# deterministic site ordering under `-j 4`. The second campaign is
# stuck-at on the bound netlist, so the packed pre-pass and the
# multi-domain map run together, and its netlist record shares the file;
# every case counts site records, not lines. A third case reruns that
# campaign with the first site record's payload spoiled: the pre-pass
# must cover exactly the sites the store leaves unsettled (`--metrics`
# must count 1 packed site, the one whose payload no longer decodes),
# stdout must again equal the reference, and exactly one record is added.
# A fourth reruns a fully stored `tables` campaign with `--metrics`: no
# site is pending, so stdout must equal the first run's and
# `rtl.eval.instances` must read 0 (the RTL golden is not simulated). A
# fifth runs a stuck-at campaign twice over one --cache-dir: the second
# run's netlist comes from the journal (its engine table must read `jobs
# executed 0`), it stores no site, and its stdout must equal the first's;
# stuck-at sites are sampled in node order, so this checks that the
# journaled netlist keeps its node ids. A sixth runs a campaign at one
# stimulus length and then at another over one directory: the second must
# print what a storeless run at its length prints, since no record of the
# first may answer it. Last, a negative --sites, a zero --cycles and a
# zero --crash-after must be refused at parse time (exit 124), and a
# --cache-dir naming a regular file must fail the run with exit 2 and one
# line naming the path.
set -euo pipefail
cd "$(dirname "$0")/.."

CTRLGEN=${CTRLGEN:-_build/default/bin/ctrlgen.exe}
if [ ! -x "$CTRLGEN" ]; then
  echo "fault-resume-smoke: building $CTRLGEN" >&2
  dune build bin/ctrlgen.exe
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# site_records DIR: the site records in DIR's results journal. A site key
# is a 32-digit digest and a site; a compile key is a digest, alone or
# followed by " netlist".
site_records() {
  grep -cE '^\{"k":"[0-9a-f]{32} (none|table:|reg:|stuck:)' \
    "$1/results.jsonl" || true
}

# same NAME REF OUT: OUT is byte-identical to REF.
same() {
  if ! cmp -s "$2" "$3"; then
    echo "fault-resume-smoke[$1]: stdout differs from $2:" >&2
    diff "$2" "$3" >&2 || true
    exit 1
  fi
}

# check NAME SITES ARGS...: SITES is the campaign's site count.
check() {
  local name=$1 sites=$2
  shift 2
  local args=(fault "$@" --sites "$sites" --cycles 24 -j 4)
  local dir="$workdir/$name"
  mkdir "$dir"

  echo "fault-resume-smoke[$name]: reference run" >&2
  "$CTRLGEN" "${args[@]}" > "$dir/reference.out" 2> /dev/null

  echo "fault-resume-smoke[$name]: interrupted run (--crash-after 5)" >&2
  local rc=0
  "$CTRLGEN" "${args[@]}" --cache-dir "$dir/cache" --crash-after 5 \
    > "$dir/crashed.out" 2> /dev/null || rc=$?
  if [ "$rc" -ne 3 ]; then
    echo "fault-resume-smoke[$name]: expected exit 3 from --crash-after, got $rc" >&2
    exit 1
  fi
  local stored
  stored=$(site_records "$dir/cache")
  if [ "$stored" -lt 1 ] || [ "$stored" -ge "$sites" ]; then
    echo "fault-resume-smoke[$name]: $stored site records, expected a partial run" >&2
    exit 1
  fi

  echo "fault-resume-smoke[$name]: resumed run ($stored sites stored)" >&2
  "$CTRLGEN" "${args[@]}" --cache-dir "$dir/cache" > "$dir/resumed.out" \
    2> /dev/null
  same "$name" "$dir/reference.out" "$dir/resumed.out"
  if [ "$(site_records "$dir/cache")" -ne "$sites" ]; then
    echo "fault-resume-smoke[$name]: expected $sites site records after the resume" >&2
    exit 1
  fi
  echo "fault-resume-smoke[$name]: OK (resumed output byte-identical)" >&2
}

check tables 12 --model tables --seed 3
check stuck 12 --impl bound --model stuck

# The stuck store is complete now (crashed run plus resumed run). Replace
# its first site record's payload with one that does not decode and rerun.
stuck=(fault --impl bound --model stuck --sites 12 --cycles 24 -j 4)
dir="$workdir/stuck"
awk '!done && /^\{"k":"[0-9a-f]+ stuck:/ {
       sub(/"v":"[^"]*"/, "\"v\":\"no such outcome\""); done = 1 }
     { print }' "$dir/cache/results.jsonl" > "$dir/spoiled.jsonl"
mv "$dir/spoiled.jsonl" "$dir/cache/results.jsonl"
if ! grep -q '"v":"no such outcome"' "$dir/cache/results.jsonl"; then
  echo "fault-resume-smoke[spoiled]: could not spoil a site record" >&2
  exit 1
fi
echo "fault-resume-smoke[spoiled]: rerun, first site payload spoiled" >&2
"$CTRLGEN" "${stuck[@]}" --cache-dir "$dir/cache" --metrics \
  > "$dir/spoiled.out" 2> "$dir/spoiled.err"
if ! grep -qE '^fault\.campaign\.packed_sites +counter +1$' "$dir/spoiled.err"; then
  echo "fault-resume-smoke[spoiled]: expected exactly 1 packed site:" >&2
  grep 'packed_sites' "$dir/spoiled.err" >&2 || true
  exit 1
fi
same spoiled "$dir/reference.out" "$dir/spoiled.out"
if [ "$(site_records "$dir/cache")" -ne 13 ]; then
  echo "fault-resume-smoke[spoiled]: expected 13 site records (1 recomputed)" >&2
  exit 1
fi
echo "fault-resume-smoke[spoiled]: OK (bad payload recomputed, output byte-identical)" >&2

# A fully stored RTL campaign reruns without simulating anything.
full=(fault --model tables --sites 8)
dir="$workdir/full"
mkdir "$dir"
echo "fault-resume-smoke[full]: stored run, then a rerun from the full store" >&2
"$CTRLGEN" "${full[@]}" --cache-dir "$dir/cache" > "$dir/reference.out"
"$CTRLGEN" "${full[@]}" --cache-dir "$dir/cache" --metrics \
  > "$dir/resumed.out" 2> "$dir/resumed.err"
if ! grep -qE '^rtl\.eval\.instances +counter +0$' "$dir/resumed.err"; then
  echo "fault-resume-smoke[full]: expected 0 RTL simulations:" >&2
  grep 'rtl\.eval\.instances' "$dir/resumed.err" >&2 || true
  exit 1
fi
same full "$dir/reference.out" "$dir/resumed.out"
if [ "$(site_records "$dir/cache")" -ne 8 ]; then
  echo "fault-resume-smoke[full]: expected 8 site records, the rerun stores none" >&2
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
same cached "$dir/cold.out" "$dir/warm.out"
if [ "$(site_records "$workdir/cache")" -ne 12 ]; then
  echo "fault-resume-smoke[cached]: expected 12 site records, the warm run stores none" >&2
  exit 1
fi
echo "fault-resume-smoke[cached]: OK (journaled netlist, output byte-identical)" >&2

# A store written at one stimulus length answers no site at another.
# stale NAME LONG SHORT ARGS...
stale() {
  local name=$1 long=$2 short=$3
  shift 3
  local dir="$workdir/stale-$name"
  mkdir "$dir"
  echo "fault-resume-smoke[stale-$name]: --cycles $long, then $short over one dir" >&2
  "$CTRLGEN" fault "$@" --cycles "$long" --cache-dir "$dir/cache" \
    > /dev/null 2>&1
  "$CTRLGEN" fault "$@" --cycles "$short" > "$dir/fresh.out" 2> /dev/null
  "$CTRLGEN" fault "$@" --cycles "$short" --cache-dir "$dir/cache" \
    > "$dir/rerun.out" 2> /dev/null
  same "stale-$name" "$dir/fresh.out" "$dir/rerun.out"
  echo "fault-resume-smoke[stale-$name]: OK (equals a fresh --cycles $short run)" >&2
}

stale stuck 24 1 --impl bound --model stuck --sites 12
stale tables 40 4 --model tables --seed 2 --sites 24

# A negative site count is a usage error (exit 124), not an exhaustive run,
# and so are a zero-cycle stimulus, under which every site reads masked,
# and a crash hook that would never fire.
for bad in --sites=-1 --cycles=0 --crash-after=0; do
  rc=0
  "$CTRLGEN" fault "$bad" --model tables > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 124 ]; then
    echo "fault-resume-smoke: expected exit 124 from $bad, got $rc" >&2
    exit 1
  fi
  echo "fault-resume-smoke: OK ($bad rejected)" >&2
done

# A --cache-dir that is a regular file is a run-time error (exit 2) with
# one line naming the path, not an uncaught exception.
touch "$workdir/not-a-dir"
rc=0
"$CTRLGEN" fault --model tables --sites 2 --cache-dir "$workdir/not-a-dir" \
  > /dev/null 2> "$workdir/cache.err" || rc=$?
if [ "$rc" -ne 2 ] || [ "$(wc -l < "$workdir/cache.err")" -ne 1 ] \
  || ! grep -q "$workdir/not-a-dir" "$workdir/cache.err"; then
  echo "fault-resume-smoke: expected exit 2 and one line naming the path, got $rc:" >&2
  cat "$workdir/cache.err" >&2
  exit 1
fi
echo "fault-resume-smoke: OK (a file as --cache-dir exits 2)" >&2
