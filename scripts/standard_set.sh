#!/usr/bin/env bash
# The standard set: canonical output of every input the project measures
# on must be byte-identical across job counts, cache modes and shard counts.
#   scripts/standard_set.sh BUILD OUT
#
# Inputs: Table I (default and --strict-next Next), --generate 1000
# --seed 1, examples/specs, and examples/specs/faults --diagnose. For each
# input the --jobs 1 run is the reference (OUT/<input>.txt, with its --json
# report, engine counters included, in OUT/<input>.json); the --jobs 4,
# --cache and speccc_shard --shards 3 runs must match it byte for byte, and
# so must Table I under --diagnose. Every run must exit 0 (all consistent)
# or 2 (some inconsistent). Exits 1 on any difference or failed run.
#
# Two trees compare with `diff -r -x '*.json' OUT_A OUT_B` (the JSON reports
# carry timings).
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD OUT" >&2
  exit 2
fi
mkdir -p "$2"
build="$(cd "$1" && pwd)"
out="$(cd "$2" && pwd)"
batch="$build/tools/speccc_batch"
shard="$build/tools/speccc_shard"
# Inputs are named relative to the repository root, so canonical output
# does not depend on where the tree is checked out.
cd "$(dirname "$0")/.."
failed=0

# run NAME CMD...: canonical stdout to OUT/NAME.txt; exit 0 or 2 expected.
run() {
  local name="$1"
  shift
  local status=0
  "$@" > "$out/$name.txt" || status=$?
  if [[ $status -ne 0 && $status -ne 2 ]]; then
    echo "FAIL $name: exit $status" >&2
    failed=1
  fi
}

# same REFERENCE NAME: OUT/NAME.txt must equal OUT/REFERENCE.txt.
same() {
  if cmp -s "$out/$1.txt" "$out/$2.txt"; then
    echo "ok   $2"
  else
    echo "FAIL $2 differs from $1:" >&2
    diff "$out/$1.txt" "$out/$2.txt" | head -20 >&2 || true
    failed=1
  fi
}

# check NAME ARGS...: the reference run and its three variants.
check() {
  local name="$1"
  shift
  run "$name" "$batch" "$@" --jobs 1 --quiet --canonical --json "$out/$name.json"
  run "$name.jobs4" "$batch" "$@" --jobs 4 --quiet --canonical
  same "$name" "$name.jobs4"
  run "$name.cache" "$batch" "$@" --jobs 4 --cache --quiet --canonical
  same "$name" "$name.cache"
  run "$name.shard3" "$shard" "$@" --shards 3 --jobs-per-shard 2 --quiet --canonical
  same "$name" "$name.shard3"
}

check table1 --corpus table1
check table1-strict --corpus table1 --strict-next
check generated --generate 1000 --seed 1
check examples examples/specs
check faults examples/specs/faults --diagnose
# Diagnosis never changes a verdict: over all-consistent Table I it must
# not change a byte.
run table1.diagnose "$batch" --corpus table1 --jobs 4 --diagnose --quiet --canonical
same table1 table1.diagnose

if [[ $failed -ne 0 ]]; then
  echo "standard set: FAILED" >&2
  exit 1
fi
echo "standard set: all canonical outputs identical"
