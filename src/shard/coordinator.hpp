// Process-level shard coordinator (ROADMAP item 4, abc-zz ZZ/Cluster
// idiom): deal a corpus round-robin across K `speccc_batch` worker
// subprocesses, collect their per-shard reports, and merge them into one
// input-ordered report whose canonical rendering is byte-identical to an
// unsharded run.
//
// Wire format: the workers' existing outputs. Each worker runs
//   speccc_batch <same inputs as the unsharded run>
//       --shard-index s --shard-count K --canonical --json <shard.json>
// so stdout carries the shard's canonical rows (the determinism contract
// in printable form) and the JSON report carries the non-canonical
// statistics (verdict counts, cache counters). Because every canonical
// row is a pure function of its own task, interleaving the shard rows
// (row 0 of each shard in shard order, then row 1, ...) reconstructs the
// unsharded report exactly -- shard_test proves the bytes.
//
// Fault handling: a worker attempt is accepted only when it exits with a
// report-complete code (0 consistent / 2 inconsistent / 3 per-spec
// errors) AND its outputs parse and agree with each other. Crashes,
// unexpected exit codes, timeouts, and malformed output are retried with
// bounded exponential backoff; every attempt is recorded in the
// non-canonical shard statistics, never silently dropped. A shard that
// exhausts its retries yields a structured per-shard error and the whole
// run reports exit code 3 (like an in-batch error would).
//
// Cache snapshots: with snapshot_in set, every worker starts from the
// same on-disk cache::Store snapshot; with snapshot_out set, each worker
// persists its post-run store and the coordinator merges the per-shard
// snapshots (cache/snapshot.hpp + Store::merge) into one warm-start file
// for the next run.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "cache/store.hpp"

namespace speccc::shard {

/// One subprocess launch of one shard.
struct WorkerAttempt {
  int attempt = 0;          ///< 0-based; also exported as SPECCC_SHARD_ATTEMPT
  int exit_code = -1;       ///< wait status exit code; -1 when signalled
  bool signalled = false;   ///< terminated by a signal (crash / SIGKILL)
  int term_signal = 0;
  bool timed_out = false;   ///< killed by the coordinator's per-attempt timeout
  double seconds = 0.0;     ///< attempt wall clock
  std::string failure;      ///< why the attempt was rejected ("" = accepted)
};

/// Final state of one shard after the retry loop.
struct ShardOutcome {
  std::size_t index = 0;
  bool completed = false;  ///< an attempt was accepted
  int exit_code = -1;      ///< the accepted attempt's exit code (0/2/3)
  std::size_t specs = 0;   ///< canonical rows this shard contributed
  std::string error;       ///< structured failure when !completed
  std::vector<WorkerAttempt> attempts;

  [[nodiscard]] std::size_t retries() const {
    return attempts.empty() ? 0 : attempts.size() - 1;
  }
};

struct CoordinatorOptions {
  /// Worker subprocesses; each gets every K-th task (splitter.hpp).
  std::size_t shards = 2;
  /// --jobs passed to each worker (threads inside one shard process).
  int jobs_per_shard = 1;
  /// Per-shard retry budget: a shard may run up to retries + 1 attempts.
  int retries = 2;
  /// First retry delay; doubles per retry, capped. Deterministic (no
  /// jitter): worker attempts are keyed by SPECCC_SHARD_ATTEMPT, so
  /// reproductions replay exactly.
  double backoff_seconds = 0.05;
  double backoff_cap_seconds = 2.0;
  /// Per-attempt wall-clock limit; expired workers are SIGKILLed and the
  /// attempt counts as a failure (then retried). 0 = unlimited.
  double worker_timeout_seconds = 0.0;
  /// argv prefix of the worker command. Empty means "speccc_batch next to
  /// the current executable". Tests point this at fault-injection wrapper
  /// scripts (which see SPECCC_SHARD_INDEX / SPECCC_SHARD_ATTEMPT).
  std::vector<std::string> worker_command;
  /// Input + passthrough arguments, exactly as the equivalent unsharded
  /// speccc_batch run would receive them (files, --manifest, --corpus,
  /// --generate/--seed, --cache, --diagnose, ...). The
  /// coordinator appends the shard selector and output plumbing itself.
  std::vector<std::string> worker_args;
  /// Directory for per-shard outputs; "" = a fresh temporary directory,
  /// removed afterwards unless keep_scratch.
  std::string scratch_dir;
  bool keep_scratch = false;
  /// Cache snapshot every worker loads before running ("" = cold start).
  std::string snapshot_in;
  /// Merged warm-start snapshot to write after the run ("" = none).
  /// Implies per-worker stores: each worker persists its shard's store
  /// and the coordinator merges them.
  std::string snapshot_out;
};

/// The merged result of a sharded run.
struct MergedReport {
  /// Canonical rows in global input order, newline included -- joined
  /// they are byte-identical to `speccc_batch --canonical` unsharded.
  /// Empty when !complete.
  std::vector<std::string> rows;
  bool complete = false;  ///< every shard completed and the merge validated
  /// Coordinator-level failure (shard-size mismatch, snapshot merge
  /// failure); "" when clean. Per-shard failures live in shards[].error.
  std::string merge_error;
  // Verdict totals summed over the shard JSON reports:
  std::size_t consistent = 0;
  std::size_t inconsistent = 0;
  std::size_t errors = 0;
  std::size_t budget_exhausted = 0;
  std::size_t cancelled = 0;
  /// Cache counters summed over shards (non-canonical diagnostics, like
  /// the per-batch stats they aggregate).
  bool cache_enabled = false;
  cache::StatsSnapshot cache_stats;
  std::vector<ShardOutcome> shards;
  std::size_t worker_failures = 0;  ///< rejected attempts across shards
  std::size_t retries_used = 0;
  double wall_seconds = 0.0;

  [[nodiscard]] std::size_t specs() const { return rows.size(); }
  /// speccc_batch-compatible: 3 on any shard/coordinator failure or
  /// in-batch error, else 2 when something is inconsistent, else 0.
  [[nodiscard]] int exit_code() const;
};

/// Run the sharded batch end to end. Throws util::InvalidInputError for
/// unusable options (no shards, no worker args); worker failures never
/// throw -- they surface in the report.
[[nodiscard]] MergedReport run_sharded(const CoordinatorOptions& options);

/// The merged canonical report: rows concatenated in global input order.
[[nodiscard]] std::string canonical(const MergedReport& report);

/// Machine-readable merged report: totals, cache counters, and the full
/// per-shard attempt history (the non-canonical fault statistics).
[[nodiscard]] std::string to_json(const MergedReport& report);

/// Human summary: per-shard attempt/verdict table plus totals.
void print_summary(std::ostream& os, const MergedReport& report);

}  // namespace speccc::shard
