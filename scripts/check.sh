#!/usr/bin/env bash
# Tier-1 verify in one command: configure + build + ctest + batch smoke.
#   scripts/check.sh [-j N] [-L label] [-LE label] [extra cmake args...]
#
# -L/-LE (and their long forms --label-regex/--label-exclude) are forwarded
# to ctest so label filters work through the wrapper:
#   scripts/check.sh -L tier1      # the fast per-module gate
#   scripts/check.sh -L difftest   # the differential oracle harness
# -j N overrides the build/ctest parallelism AND the worker count of the
# speccc_batch smoke (default: nproc / 2 workers).
# Everything else is passed to cmake (e.g. -DSPECCC_SANITIZE=ON).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
batch_jobs=2

cmake_args=()
ctest_args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    -j)
      if [[ $# -lt 2 ]]; then
        echo "error: -j needs a job count" >&2
        exit 2
      fi
      jobs="$2"
      batch_jobs="$2"
      shift 2
      ;;
    -L|-LE|--label-regex|--label-exclude)
      if [[ $# -lt 2 ]]; then
        echo "error: $1 needs a label argument" >&2
        exit 2
      fi
      ctest_args+=("$1" "$2")
      shift 2
      ;;
    *)
      cmake_args+=("$1")
      shift
      ;;
  esac
done

cmake -B "$build_dir" -S "$repo_root" ${cmake_args[@]+"${cmake_args[@]}"}
cmake --build "$build_dir" -j "$jobs"
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
  ${ctest_args[@]+"${ctest_args[@]}"}

# Batch smoke: the parallel checker over the example specification
# documents (skipped when tools were configured off). Exit code 0 means
# every example spec is consistent and no worker errored.
batch_bin="$build_dir/tools/speccc_batch"
if [[ -x "$batch_bin" ]]; then
  echo "speccc_batch smoke (--jobs $batch_jobs) over examples/specs"
  "$batch_bin" --jobs "$batch_jobs" --quiet "$repo_root/examples/specs"
  # Cache smoke: the canonical report must be byte-identical with the
  # memoization store on vs off (cache/store.hpp's determinism contract).
  echo "speccc_batch cache smoke (canonical diff, cache on vs off)"
  "$batch_bin" --jobs "$batch_jobs" --quiet --canonical \
    "$repo_root/examples/specs" > "$build_dir/batch-smoke-plain.txt"
  "$batch_bin" --jobs "$batch_jobs" --quiet --canonical --cache \
    "$repo_root/examples/specs" > "$build_dir/batch-smoke-cache.txt"
  diff "$build_dir/batch-smoke-plain.txt" "$build_dir/batch-smoke-cache.txt"
  # Diagnosis smoke 1: over an all-consistent corpus, --diagnose must not
  # change a byte of the canonical report (MCS enumeration only triggers
  # on genuinely inconsistent specs; batch/batch.hpp's input-purity rule).
  echo "speccc_batch diagnosis smoke (canonical diff, --diagnose on vs off)"
  "$batch_bin" --jobs "$batch_jobs" --quiet --canonical --diagnose \
    "$repo_root/examples/specs" > "$build_dir/batch-smoke-diagnose.txt"
  diff "$build_dir/batch-smoke-plain.txt" "$build_dir/batch-smoke-diagnose.txt"
  # Diagnosis smoke 2: the hand-written multi-fault specs must come back
  # inconsistent (exit 2) with a MUS and correction sets on every row.
  echo "speccc_batch diagnosis smoke over examples/specs/faults"
  fault_report="$build_dir/batch-smoke-faults.txt"
  set +e
  "$batch_bin" --jobs "$batch_jobs" --quiet --canonical --diagnose \
    "$repo_root/examples/specs/faults" > "$fault_report"
  fault_status=$?
  set -e
  if [[ "$fault_status" -ne 2 ]]; then
    echo "error: faults corpus expected exit 2 (inconsistent), got $fault_status" >&2
    exit 1
  fi
  if grep -qv 'mus=.* mcs=' "$fault_report"; then
    echo "error: a faults row is missing its mus=/mcs= diagnosis:" >&2
    cat "$fault_report" >&2
    exit 1
  fi
  # infusion_pump's R2 is unsatisfiable on its own: the satisfiability
  # screen must flag it.
  if ! grep -q 'infusion_pump\.txt .* unsat=R2 mus=' "$fault_report"; then
    echo "error: the infusion_pump row is missing unsat=R2:" >&2
    cat "$fault_report" >&2
    exit 1
  fi
  # Shard smoke: the subprocess coordinator's interleaved merge must be
  # byte-identical to the unsharded canonical report
  # (shard/coordinator.hpp's determinism contract).
  shard_bin="$build_dir/tools/speccc_shard"
  if [[ -x "$shard_bin" ]]; then
    echo "speccc_shard smoke (canonical diff, 3 shards vs unsharded)"
    "$shard_bin" --shards 3 --jobs-per-shard "$batch_jobs" --quiet --canonical \
      "$repo_root/examples/specs" > "$build_dir/batch-smoke-shard.txt"
    diff "$build_dir/batch-smoke-plain.txt" "$build_dir/batch-smoke-shard.txt"
  fi
  # Snapshot smoke: a cold run that saves a warm-start snapshot and a warm
  # run that loads it must both match the plain canonical report, and the
  # warm run must be all hits (cache/snapshot.hpp's exactness contract).
  echo "speccc_batch snapshot smoke (save, reload, assert zero misses)"
  snap="$build_dir/batch-smoke.snap"
  rm -f "$snap"
  "$batch_bin" --jobs "$batch_jobs" --quiet --canonical \
    --cache-snapshot ",$snap" \
    "$repo_root/examples/specs" > "$build_dir/batch-smoke-snap-cold.txt"
  diff "$build_dir/batch-smoke-plain.txt" "$build_dir/batch-smoke-snap-cold.txt"
  "$batch_bin" --jobs "$batch_jobs" --quiet --canonical --cache-stats \
    --cache-snapshot "$snap," \
    "$repo_root/examples/specs" > "$build_dir/batch-smoke-snap-warm.txt" \
    2> "$build_dir/batch-smoke-snap-stats.txt"
  diff "$build_dir/batch-smoke-plain.txt" "$build_dir/batch-smoke-snap-warm.txt"
  grep -q " 0 misses, L2 " "$build_dir/batch-smoke-snap-stats.txt"
  grep -q " 0 misses, 0 evictions" "$build_dir/batch-smoke-snap-stats.txt"
  # The same over faults --diagnose, whose snapshot carries stage-3 entries
  # (refinement, MUS, MCS and the screen); both runs exit 2 (inconsistent)
  # and must match the diagnosis report above.
  echo "speccc_batch snapshot smoke over examples/specs/faults --diagnose"
  fault_snap="$build_dir/batch-smoke-faults.snap"
  rm -f "$fault_snap"
  set +e
  "$batch_bin" --jobs "$batch_jobs" --quiet --canonical --diagnose \
    --cache-snapshot ",$fault_snap" \
    "$repo_root/examples/specs/faults" > "$build_dir/batch-smoke-faults-cold.txt"
  cold_status=$?
  "$batch_bin" --jobs "$batch_jobs" --quiet --canonical --diagnose --cache-stats \
    --cache-snapshot "$fault_snap," \
    "$repo_root/examples/specs/faults" > "$build_dir/batch-smoke-faults-warm.txt" \
    2> "$build_dir/batch-smoke-faults-stats.txt"
  warm_status=$?
  set -e
  if [[ "$cold_status" -ne 2 || "$warm_status" -ne 2 ]]; then
    echo "error: faults snapshot runs expected exit 2, got $cold_status/$warm_status" >&2
    exit 1
  fi
  diff "$fault_report" "$build_dir/batch-smoke-faults-cold.txt"
  diff "$fault_report" "$build_dir/batch-smoke-faults-warm.txt"
  grep -q " 0 misses, L2 " "$build_dir/batch-smoke-faults-stats.txt"
  grep -q " 0 misses, 0 evictions" "$build_dir/batch-smoke-faults-stats.txt"
  # Longest-deadline smoke: the largest legal duration (2^32 - 1 seconds)
  # abstracts to one tick, so the spec must come back consistent at once,
  # with no wrap in the divisor scan and no raw Next chain ever built.
  echo "speccc_batch longest-deadline smoke (4294967295 seconds, 60 s cap)"
  longest_spec="$build_dir/batch-smoke-longest-deadline.txt"
  printf '%s\n' \
    'R1: If the order button is pressed, the confirmation message is displayed.' \
    'R2: If the payment request is received, the order record is stored in 4294967295 seconds.' \
    > "$longest_spec"
  timeout 60 "$batch_bin" --quiet --canonical "$longest_spec" \
    > "$build_dir/batch-smoke-longest-deadline.out"
  grep -q ' status=consistent ' "$build_dir/batch-smoke-longest-deadline.out"
  # Deep-chain smoke: "in 7 seconds" beside "in 3000000 seconds"
  # abstracts to d = 7 and a 428,571-deep Next chain; compiling its
  # monitor is linear in the chain, so the spec decides well inside a
  # 10 s budget (an expired budget would print status=budget-exhausted).
  echo "speccc_batch deep-chain smoke (428,571-deep Next chain, 10 s budget)"
  deep_spec="$build_dir/batch-smoke-deep-chain.txt"
  printf '%s\n' \
    'C1: If the order button is pressed, the confirmation message is displayed in 7 seconds.' \
    'C2: If the payment request is received, the order record is stored in 3000000 seconds.' \
    > "$deep_spec"
  "$batch_bin" --quiet --canonical --time-budget 10 "$deep_spec" \
    > "$build_dir/batch-smoke-deep-chain.out"
  grep -q ' status=consistent ' "$build_dir/batch-smoke-deep-chain.out"
else
  echo "note: $batch_bin not built (SPECCC_BUILD_TOOLS=OFF?); smoke skipped"
fi

# Serve smoke: daemon up on an ephemeral port, a short soak through the
# NDJSON protocol, verdict parity with speccc_batch byte-for-byte, then a
# SIGTERM drain that must exit 0 (tools/speccc_serve's contract).
serve_bin="$build_dir/tools/speccc_serve"
load_bin="$build_dir/tools/speccc_load"
if [[ -x "$serve_bin" && -x "$load_bin" && -x "$batch_bin" ]]; then
  echo "speccc_serve smoke (soak + canonical parity + SIGTERM drain)"
  port_file="$build_dir/serve-smoke.port"
  rm -f "$port_file"
  "$serve_bin" --port 0 --port-file "$port_file" --workers "$batch_jobs" --quiet &
  serve_pid=$!
  for _ in $(seq 1 100); do [[ -s "$port_file" ]] && break; sleep 0.1; done
  "$load_bin" --port-file "$port_file" --generate 12 --seed 3 --requests 24 \
    --connections 2 --deadline-ms 300 --deadline-fraction 0.5 --quiet
  "$load_bin" --port-file "$port_file" --generate 12 --seed 3 \
    --connections 2 --canonical-out "$build_dir/serve-smoke-canonical.txt" --quiet
  "$batch_bin" --generate 12 --seed 3 --jobs "$batch_jobs" --quiet --canonical \
    > "$build_dir/serve-smoke-batch.txt"
  diff "$build_dir/serve-smoke-batch.txt" "$build_dir/serve-smoke-canonical.txt"
  kill -TERM "$serve_pid"
  wait "$serve_pid"
else
  echo "note: $serve_bin not built (SPECCC_BUILD_TOOLS=OFF?); serve smoke skipped"
fi
