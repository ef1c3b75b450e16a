#include "shard/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <thread>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cache/snapshot.hpp"
#include "nlp/lexicon.hpp"
#include "serve/json.hpp"
#include "shard/splitter.hpp"
#include "util/diagnostics.hpp"

extern char** environ;

namespace fs = std::filesystem;

namespace speccc::shard {

namespace {

std::string self_directory() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n <= 0) return {};
  buffer[n] = '\0';
  return fs::path(buffer).parent_path().string();
}

std::vector<std::string> default_worker() {
  const std::string dir = self_directory();
  if (dir.empty()) return {"speccc_batch"};
  return {(fs::path(dir) / "speccc_batch").string()};
}

std::string make_scratch_dir() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr && *base != '\0' ? base : "/tmp") +
                     "/speccc-shard-XXXXXX";
  std::vector<char> buffer(tmpl.begin(), tmpl.end());
  buffer.push_back('\0');
  if (::mkdtemp(buffer.data()) == nullptr) {
    throw util::InvalidInputError(std::string("cannot create scratch dir: ") +
                                  std::strerror(errno));
  }
  return std::string(buffer.data());
}

/// Last `limit` bytes of a file, for worker-failure diagnostics.
std::string file_tail(const std::string& path, std::size_t limit = 400) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = std::move(buffer).str();
  if (text.size() > limit) text.erase(0, text.size() - limit);
  // Flatten newlines so the tail reads as one diagnostic line.
  std::replace(text.begin(), text.end(), '\n', ' ');
  while (!text.empty() && text.back() == ' ') text.pop_back();
  return text;
}

struct SpawnResult {
  pid_t pid = -1;
  std::string error;
};

/// fork + redirect stdout/stderr + execvp, with the shard/attempt
/// exported as SPECCC_SHARD_INDEX / SPECCC_SHARD_ATTEMPT (the hook
/// fault-injection wrapper scripts key on).
SpawnResult spawn_worker(const std::vector<std::string>& argv,
                         const std::string& stdout_path,
                         const std::string& stderr_path, std::size_t index,
                         int attempt) {
  std::vector<char*> c_argv;
  c_argv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) c_argv.push_back(const_cast<char*>(arg.c_str()));
  c_argv.push_back(nullptr);

  // Build the child environment up front (fork in a multithreaded parent:
  // the child may only use async-signal-safe calls before exec).
  std::vector<std::string> env_store;
  std::vector<char*> c_env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SPECCC_SHARD_INDEX=", 19) == 0 ||
        std::strncmp(*e, "SPECCC_SHARD_ATTEMPT=", 21) == 0) {
      continue;
    }
    c_env.push_back(*e);
  }
  env_store.push_back("SPECCC_SHARD_INDEX=" + std::to_string(index));
  env_store.push_back("SPECCC_SHARD_ATTEMPT=" + std::to_string(attempt));
  for (std::string& entry : env_store) c_env.push_back(entry.data());
  c_env.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    return {-1, std::string("fork failed: ") + std::strerror(errno)};
  }
  if (pid == 0) {
    FILE* out = std::freopen(stdout_path.c_str(), "w", stdout);
    FILE* err = std::freopen(stderr_path.c_str(), "w", stderr);
    if (out == nullptr || err == nullptr) ::_exit(127);
    ::execve(c_argv[0], c_argv.data(), c_env.data());
    // execve only returns on failure; 127 mirrors the shell convention.
    ::_exit(127);
  }
  return {pid, {}};
}

/// Wait for `pid`, enforcing the per-attempt timeout cooperatively from
/// the coordinator side (SIGKILL on expiry -- the worker holds no state
/// worth draining; its outputs are re-made by the retry).
void wait_worker(pid_t pid, double timeout_seconds, WorkerAttempt& attempt) {
  const util::Stopwatch watch;
  int status = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) break;
    if (done < 0) {  // should not happen; treat as a failed attempt
      attempt.failure = std::string("waitpid failed: ") + std::strerror(errno);
      return;
    }
    if (timeout_seconds > 0 && watch.seconds() > timeout_seconds) {
      attempt.timed_out = true;
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  attempt.seconds = watch.seconds();
  if (WIFEXITED(status)) {
    attempt.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    attempt.signalled = true;
    attempt.term_signal = WTERMSIG(status);
  }
}

std::vector<std::string> read_rows(const std::string& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  ok = static_cast<bool>(in);
  std::vector<std::string> rows;
  std::string line;
  while (std::getline(in, line)) rows.push_back(line + "\n");
  return rows;
}

std::uint64_t count_of(const serve::json::Value& doc, const char* key) {
  const serve::json::Value* value = doc.find(key);
  return value == nullptr ? 0 : static_cast<std::uint64_t>(value->as_number());
}

/// One shard's parsed wire output.
struct ShardReport {
  std::vector<std::string> rows;
  std::size_t consistent = 0, inconsistent = 0, errors = 0;
  std::size_t budget_exhausted = 0, cancelled = 0;
  bool cache_enabled = false;
  cache::StatsSnapshot cache;
};

/// Parse + cross-validate the canonical rows against the JSON report.
/// Returns false (with `why`) on any inconsistency: a truncated file from
/// a crashed worker must read as a failed attempt, not a short corpus.
bool parse_shard_report(const std::string& rows_path,
                        const std::string& json_path, ShardReport& report,
                        std::string& why) {
  bool rows_ok = false;
  report.rows = read_rows(rows_path, rows_ok);
  if (!rows_ok) {
    why = "missing canonical output " + rows_path;
    return false;
  }
  std::ifstream in(json_path, std::ios::binary);
  if (!in) {
    why = "missing JSON report " + json_path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  serve::json::Value doc;
  try {
    doc = serve::json::parse(buffer.str());
  } catch (const util::ParseError& e) {
    why = std::string("unparseable JSON report: ") + e.what();
    return false;
  }
  const serve::json::Value* specs = doc.find("specs");
  if (specs == nullptr || specs->kind() != serve::json::Kind::kArray) {
    why = "JSON report carries no specs array";
    return false;
  }
  if (specs->as_array().size() != report.rows.size()) {
    why = "canonical rows (" + std::to_string(report.rows.size()) +
          ") disagree with JSON specs (" +
          std::to_string(specs->as_array().size()) + ")";
    return false;
  }
  report.consistent = count_of(doc, "consistent");
  report.inconsistent = count_of(doc, "inconsistent");
  report.errors = count_of(doc, "errors");
  report.budget_exhausted = count_of(doc, "budget_exhausted");
  report.cancelled = count_of(doc, "cancelled");
  if (const serve::json::Value* cache = doc.find("cache"); cache != nullptr) {
    report.cache_enabled = true;
    report.cache.l1_hits = count_of(*cache, "l1_hits");
    report.cache.l1_misses = count_of(*cache, "l1_misses");
    report.cache.l2_hits = count_of(*cache, "l2_hits");
    report.cache.l2_misses = count_of(*cache, "l2_misses");
    report.cache.evictions = count_of(*cache, "evictions");
  }
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  serve::json::write_string(out, s);
  return out;
}

}  // namespace

int MergedReport::exit_code() const {
  if (!complete || !merge_error.empty() || errors > 0 || budget_exhausted > 0 ||
      cancelled > 0) {
    return 3;
  }
  return inconsistent > 0 ? 2 : 0;
}

MergedReport run_sharded(const CoordinatorOptions& options) {
  if (options.shards == 0) {
    throw util::InvalidInputError("shard coordinator needs at least 1 shard");
  }
  if (options.worker_args.empty()) {
    throw util::InvalidInputError(
        "shard coordinator needs worker input arguments");
  }
  const util::Stopwatch watch;
  const std::vector<std::string> worker =
      options.worker_command.empty() ? default_worker() : options.worker_command;
  const bool own_scratch = options.scratch_dir.empty();
  const std::string scratch =
      own_scratch ? make_scratch_dir() : options.scratch_dir;
  if (!own_scratch) fs::create_directories(scratch);

  MergedReport merged;
  merged.shards.resize(options.shards);
  std::vector<ShardReport> reports(options.shards);

  const int attempts_allowed = std::max(0, options.retries) + 1;
  std::vector<std::thread> runners;
  runners.reserve(options.shards);
  for (std::size_t s = 0; s < options.shards; ++s) {
    runners.emplace_back([&, s]() {
      ShardOutcome& outcome = merged.shards[s];
      outcome.index = s;
      const std::string rows_path =
          scratch + "/shard-" + std::to_string(s) + ".out";
      const std::string err_path =
          scratch + "/shard-" + std::to_string(s) + ".err";
      const std::string json_path =
          scratch + "/shard-" + std::to_string(s) + ".json";
      const std::string snap_path =
          scratch + "/shard-" + std::to_string(s) + ".snap";

      std::vector<std::string> argv = worker;
      argv.insert(argv.end(), options.worker_args.begin(),
                  options.worker_args.end());
      argv.insert(argv.end(),
                  {"--shard-index", std::to_string(s), "--shard-count",
                   std::to_string(options.shards), "--jobs",
                   std::to_string(std::max(1, options.jobs_per_shard)),
                   "--canonical", "--quiet", "--json", json_path});
      if (!options.snapshot_in.empty() || !options.snapshot_out.empty()) {
        const std::string out_side =
            options.snapshot_out.empty() ? std::string() : snap_path;
        argv.insert(argv.end(),
                    {"--cache-snapshot", options.snapshot_in + "," + out_side});
      }

      double backoff = options.backoff_seconds;
      for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
        if (attempt > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
          backoff = std::min(backoff * 2, options.backoff_cap_seconds);
        }
        WorkerAttempt record;
        record.attempt = attempt;
        const SpawnResult spawned =
            spawn_worker(argv, rows_path, err_path, s, attempt);
        if (spawned.pid < 0) {
          record.failure = spawned.error;
          outcome.attempts.push_back(record);
          continue;
        }
        wait_worker(spawned.pid, options.worker_timeout_seconds, record);
        if (record.timed_out) {
          record.failure = "timed out after " +
                           std::to_string(options.worker_timeout_seconds) +
                           "s (SIGKILL)";
        } else if (record.signalled) {
          record.failure =
              "killed by signal " + std::to_string(record.term_signal);
        } else if (record.exit_code != 0 && record.exit_code != 2 &&
                   record.exit_code != 3) {
          // 0/2/3 all mean "complete report" for speccc_batch; anything
          // else is a crashed or misconfigured worker.
          record.failure = "exit code " + std::to_string(record.exit_code);
          const std::string tail = file_tail(err_path);
          if (!tail.empty()) record.failure += ": " + tail;
        } else {
          std::string why;
          if (parse_shard_report(rows_path, json_path, reports[s], why)) {
            outcome.attempts.push_back(record);
            outcome.completed = true;
            outcome.exit_code = record.exit_code;
            outcome.specs = reports[s].rows.size();
            return;
          }
          record.failure = "malformed shard report: " + why;
        }
        outcome.attempts.push_back(record);
      }
      outcome.error = "shard " + std::to_string(s) + " failed after " +
                      std::to_string(attempts_allowed) + " attempts: " +
                      (outcome.attempts.empty()
                           ? std::string("never spawned")
                           : outcome.attempts.back().failure);
    });
  }
  for (std::thread& runner : runners) runner.join();

  for (const ShardOutcome& outcome : merged.shards) {
    for (const WorkerAttempt& attempt : outcome.attempts) {
      if (!attempt.failure.empty()) ++merged.worker_failures;
    }
    merged.retries_used += outcome.retries();
  }

  merged.complete =
      std::all_of(merged.shards.begin(), merged.shards.end(),
                  [](const ShardOutcome& o) { return o.completed; });

  if (merged.complete) {
    // Validate the shard sizes against the round-robin deal before
    // interleaving: if they cannot come from one corpus of size N, the
    // workers saw different inputs (e.g. a file changed mid-run) and a
    // merged report would be silently wrong.
    std::size_t total = 0;
    for (const ShardReport& report : reports) total += report.rows.size();
    for (std::size_t s = 0; s < options.shards; ++s) {
      if (reports[s].rows.size() != shard_size(total, options.shards, s)) {
        merged.merge_error =
            "shard " + std::to_string(s) + " returned " +
            std::to_string(reports[s].rows.size()) +
            " rows where the round-robin deal of " + std::to_string(total) +
            " tasks predicts " +
            std::to_string(shard_size(total, options.shards, s)) +
            " (workers disagree about the corpus)";
        merged.complete = false;
        break;
      }
    }
  }

  if (merged.complete) {
    // Interleave: row r of the merged report came from shard r % K.
    std::size_t total = 0;
    for (const ShardReport& report : reports) total += report.rows.size();
    merged.rows.reserve(total);
    for (std::size_t row = 0; merged.rows.size() < total; ++row) {
      for (std::size_t s = 0; s < options.shards; ++s) {
        if (row < reports[s].rows.size()) {
          merged.rows.push_back(reports[s].rows[row]);
        }
      }
    }
    for (const ShardReport& report : reports) {
      merged.consistent += report.consistent;
      merged.inconsistent += report.inconsistent;
      merged.errors += report.errors;
      merged.budget_exhausted += report.budget_exhausted;
      merged.cancelled += report.cancelled;
      if (report.cache_enabled) {
        merged.cache_enabled = true;
        merged.cache_stats.l1_hits += report.cache.l1_hits;
        merged.cache_stats.l1_misses += report.cache.l1_misses;
        merged.cache_stats.l2_hits += report.cache.l2_hits;
        merged.cache_stats.l2_misses += report.cache.l2_misses;
        merged.cache_stats.evictions += report.cache.evictions;
      }
    }

    if (!options.snapshot_out.empty()) {
      // Merge the per-shard stores into one warm-start snapshot. The
      // fingerprint is the default lexicon's -- exactly what the workers
      // stamped (speccc_batch runs the builtin vocabulary).
      const util::Digest fingerprint = nlp::Lexicon::builtin().fingerprint();
      try {
        cache::Store combined(cache::StoreOptions{.max_entries = 0});
        for (std::size_t s = 0; s < options.shards; ++s) {
          cache::load_snapshot(
              combined, scratch + "/shard-" + std::to_string(s) + ".snap",
              fingerprint);
        }
        cache::save_snapshot(combined, options.snapshot_out, fingerprint);
      } catch (const cache::SnapshotError& e) {
        merged.merge_error =
            std::string("cache snapshot merge failed: ") + e.what();
      }
    }
  }

  if (own_scratch && !options.keep_scratch) {
    std::error_code ec;  // best effort; diagnostics were already read
    fs::remove_all(scratch, ec);
  }
  merged.wall_seconds = watch.seconds();
  return merged;
}

std::string canonical(const MergedReport& report) {
  std::string out;
  for (const std::string& row : report.rows) out += row;
  return out;
}

std::string to_json(const MergedReport& report) {
  std::ostringstream os;
  os << "{\n  \"shards\": " << report.shards.size()
     << ",\n  \"complete\": " << (report.complete ? "true" : "false")
     << ",\n  \"specs\": " << report.specs()
     << ",\n  \"wall_seconds\": " << report.wall_seconds
     << ",\n  \"consistent\": " << report.consistent
     << ",\n  \"inconsistent\": " << report.inconsistent
     << ",\n  \"errors\": " << report.errors
     << ",\n  \"budget_exhausted\": " << report.budget_exhausted
     << ",\n  \"cancelled\": " << report.cancelled
     << ",\n  \"worker_failures\": " << report.worker_failures
     << ",\n  \"retries\": " << report.retries_used;
  if (!report.merge_error.empty()) {
    os << ",\n  \"merge_error\": " << json_escape(report.merge_error);
  }
  if (report.cache_enabled) {
    const cache::StatsSnapshot& c = report.cache_stats;
    os << ",\n  \"cache\": {\"l1_hits\": " << c.l1_hits
       << ", \"l1_misses\": " << c.l1_misses << ", \"l2_hits\": " << c.l2_hits
       << ", \"l2_misses\": " << c.l2_misses
       << ", \"evictions\": " << c.evictions << "}";
  }
  os << ",\n  \"shard_outcomes\": [\n";
  for (std::size_t s = 0; s < report.shards.size(); ++s) {
    const ShardOutcome& o = report.shards[s];
    os << "    {\"shard\": " << o.index << ", \"completed\": "
       << (o.completed ? "true" : "false") << ", \"exit_code\": " << o.exit_code
       << ", \"specs\": " << o.specs << ", \"attempts\": [";
    for (std::size_t a = 0; a < o.attempts.size(); ++a) {
      const WorkerAttempt& attempt = o.attempts[a];
      os << (a > 0 ? ", " : "") << "{\"attempt\": " << attempt.attempt
         << ", \"exit_code\": " << attempt.exit_code << ", \"signalled\": "
         << (attempt.signalled ? "true" : "false")
         << ", \"timed_out\": " << (attempt.timed_out ? "true" : "false")
         << ", \"seconds\": " << attempt.seconds;
      if (!attempt.failure.empty()) {
        os << ", \"failure\": " << json_escape(attempt.failure);
      }
      os << "}";
    }
    os << "]";
    if (!o.error.empty()) os << ", \"error\": " << json_escape(o.error);
    os << "}" << (s + 1 < report.shards.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

void print_summary(std::ostream& os, const MergedReport& report) {
  for (const ShardOutcome& o : report.shards) {
    os << "  shard " << o.index << ": "
       << (o.completed ? "completed" : "FAILED") << " (" << o.specs
       << " specs, " << o.attempts.size() << " attempt"
       << (o.attempts.size() == 1 ? "" : "s") << ")";
    for (const WorkerAttempt& attempt : o.attempts) {
      if (!attempt.failure.empty()) {
        os << "\n    attempt " << attempt.attempt << ": " << attempt.failure;
      }
    }
    if (!o.error.empty()) os << "\n    " << o.error;
    os << "\n";
  }
  if (!report.merge_error.empty()) {
    os << "  merge error: " << report.merge_error << "\n";
  }
  os << report.specs() << " specs across " << report.shards.size()
     << " shards in " << report.wall_seconds << "s wall ("
     << report.worker_failures << " worker failures, " << report.retries_used
     << " retries): " << report.consistent << " consistent, "
     << report.inconsistent << " inconsistent, " << report.errors
     << " errors, " << report.budget_exhausted << " budget-exhausted, "
     << report.cancelled << " cancelled\n";
  if (report.cache_enabled) cache::print_stats(os, report.cache_stats);
}

}  // namespace speccc::shard
