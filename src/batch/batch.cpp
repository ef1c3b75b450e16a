#include "batch/batch.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "serve/json.hpp"
#include "util/diagnostics.hpp"

namespace speccc::batch {

const char* status_name(TaskStatus status) {
  switch (status) {
    case TaskStatus::kConsistent: return "consistent";
    case TaskStatus::kInconsistent: return "inconsistent";
    case TaskStatus::kError: return "error";
    case TaskStatus::kBudgetExhausted: return "budget-exhausted";
    case TaskStatus::kCancelled: return "cancelled";
  }
  return "?";
}

namespace {

/// Per-task budget state read by the worker pipeline's cancelled functor.
/// Lives in a shared_ptr because PipelineOptions copies the functor into
/// the worker's long-lived Pipeline while the worker resets the state
/// between tasks.
struct BudgetState {
  util::Stopwatch clock;
  double budget_seconds = 0.0;
  const std::atomic<bool>* cancel = nullptr;

  [[nodiscard]] bool externally_cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool expired() const {
    return (budget_seconds > 0.0 && clock.seconds() > budget_seconds) ||
           externally_cancelled();
  }
};

/// Work-stealing deques: round-robin dealt; the owner pops from the front
/// (input order -- a one-worker batch is exactly the sequential loop) and
/// thieves steal from the back, the tasks the owner would reach last.
/// Tasks are all known upfront and never re-queued, so a worker may exit
/// as soon as every deque is empty (in-flight tasks belong to their
/// workers). A small per-deque mutex is deliberate: task granularity is a
/// whole pipeline run (milliseconds to seconds), so queue contention is
/// noise and a lock-free Chase-Lev deque would buy nothing but risk.
class StealingQueues {
 public:
  StealingQueues(std::size_t workers, std::size_t tasks) : queues_(workers) {
    for (std::size_t t = 0; t < tasks; ++t) {
      queues_[t % workers].items.push_back(t);
    }
  }

  /// Next task for `self`: own deque first, then steal. Returns false when
  /// every deque is empty.
  bool next(std::size_t self, std::size_t& out, std::size_t& steals) {
    {
      Queue& own = queues_[self];
      std::lock_guard<std::mutex> lock(own.mutex);
      if (!own.items.empty()) {
        out = own.items.front();
        own.items.pop_front();
        return true;
      }
    }
    for (std::size_t i = 1; i < queues_.size(); ++i) {
      Queue& victim = queues_[(self + i) % queues_.size()];
      std::lock_guard<std::mutex> lock(victim.mutex);
      if (!victim.items.empty()) {
        out = victim.items.back();
        victim.items.pop_back();
        ++steals;
        return true;
      }
    }
    return false;
  }

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::size_t> items;
  };
  std::vector<Queue> queues_;
};

}  // namespace

struct TaskRunner::Impl {
  int id;
  RunnerOptions options;
  std::shared_ptr<BudgetState> budget;
  std::unique_ptr<core::Pipeline> pipeline;
};

TaskRunner::TaskRunner(int worker_id, const RunnerOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->id = worker_id;
  impl_->options = options;
  impl_->budget = std::make_shared<BudgetState>();

  core::PipelineOptions pipeline_options = options.pipeline;
  const std::shared_ptr<BudgetState> budget = impl_->budget;
  pipeline_options.cancelled = [budget] { return budget->expired(); };
  impl_->pipeline = std::make_unique<core::Pipeline>(std::move(pipeline_options));
}

TaskRunner::~TaskRunner() = default;

TaskResult TaskRunner::run(const SpecTask& task, const RunLimits& limits) {
  BudgetState& budget = *impl_->budget;
  budget.budget_seconds = limits.budget_seconds;
  budget.cancel = limits.cancel;

  TaskResult result;
  result.name = task.name;
  result.worker = impl_->id;

  if (budget.externally_cancelled()) {
    result.status = TaskStatus::kCancelled;
    result.detail = "cancelled before the task started";
    return result;
  }

  const bool track_cache = impl_->options.pipeline.cache != nullptr;
  const cache::StatsSnapshot cache_before =
      track_cache ? cache::Store::thread_stats() : cache::StatsSnapshot{};

  budget.clock.reset();
  util::Stopwatch task_clock;
  try {
    const core::PipelineResult pipeline_result =
        impl_->pipeline->run(task.name, task.requirements);
    result.status = pipeline_result.consistent ? TaskStatus::kConsistent
                                               : TaskStatus::kInconsistent;
    result.formulas = pipeline_result.num_formulas();
    result.inputs = pipeline_result.num_inputs();
    result.outputs = pipeline_result.num_outputs();
    result.refined = pipeline_result.refined();
    result.unsatisfiable_requirements =
        pipeline_result.unsatisfiable_requirements;
    if (pipeline_result.refinement.has_value()) {
      // Map localization indices onto requirement ids: the diagnosis the
      // user reads names sentences, not positions.
      const auto& requirements = pipeline_result.translation.requirements;
      const auto id_of = [&requirements](std::size_t i) {
        return i < requirements.size() ? requirements[i].id
                                       : "#" + std::to_string(i);
      };
      const refine::Localization& loc =
          pipeline_result.refinement->localization;
      for (std::size_t i : loc.core) result.mus.push_back(id_of(i));
      for (const auto& mcs : loc.correction_sets) {
        std::vector<std::string> ids;
        ids.reserve(mcs.size());
        for (std::size_t i : mcs) ids.push_back(id_of(i));
        result.correction_sets.push_back(std::move(ids));
      }
    }
    result.bdd = pipeline_result.synthesis.bdd_stats;
  } catch (const util::CancelledError& e) {
    result.status = budget.externally_cancelled() ? TaskStatus::kCancelled
                                                  : TaskStatus::kBudgetExhausted;
    result.detail = e.what();
  } catch (const std::exception& e) {
    result.status = TaskStatus::kError;
    result.detail = e.what();
  }
  result.seconds = task_clock.seconds();
  if (track_cache) {
    result.cache = cache::Store::thread_stats().since(cache_before);
  }
  return result;
}

double BatchReport::cpu_seconds() const {
  double total = 0.0;
  for (const TaskResult& r : results) total += r.seconds;
  return total;
}

BatchReport check(const std::vector<SpecTask>& tasks,
                  const BatchOptions& options) {
  BatchReport report;
  int jobs = options.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  jobs = std::min(jobs,
                  static_cast<int>(std::max<std::size_t>(tasks.size(), 1)));
  report.jobs = jobs;
  report.results.resize(tasks.size());
  report.cache_enabled = options.pipeline.cache != nullptr;
  if (tasks.empty()) return report;

  const cache::StatsSnapshot stats_before =
      report.cache_enabled ? options.pipeline.cache->stats()
                           : cache::StatsSnapshot{};

  util::Stopwatch wall;
  StealingQueues queues(static_cast<std::size_t>(jobs), tasks.size());
  std::mutex report_mutex;  // guards results slots' publication + on_result
  std::atomic<std::size_t> total_steals{0};

  RunLimits limits;
  limits.budget_seconds = options.task_time_budget_seconds;
  limits.cancel = options.cancel;

  const auto worker_loop = [&](std::size_t worker_id) {
    TaskRunner worker(static_cast<int>(worker_id), options);
    std::size_t index = 0;
    std::size_t steals = 0;
    while (queues.next(worker_id, index, steals)) {
      TaskResult result = worker.run(tasks[index], limits);
      std::lock_guard<std::mutex> lock(report_mutex);
      report.results[index] = std::move(result);
      if (options.on_result) options.on_result(report.results[index]);
    }
    total_steals.fetch_add(steals, std::memory_order_relaxed);
  };

  if (jobs == 1) {
    worker_loop(0);  // inline: keeps jobs=1 usable under thread-less debuggers
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(jobs));
    for (int w = 0; w < jobs; ++w) {
      threads.emplace_back(worker_loop, static_cast<std::size_t>(w));
    }
    for (std::thread& t : threads) t.join();
  }

  report.wall_seconds = wall.seconds();
  report.steals = total_steals.load();
  if (report.cache_enabled) {
    report.cache_stats = options.pipeline.cache->stats().since(stats_before);
  }
  for (const TaskResult& r : report.results) {
    switch (r.status) {
      case TaskStatus::kConsistent: ++report.consistent; break;
      case TaskStatus::kInconsistent: ++report.inconsistent; break;
      case TaskStatus::kError: ++report.errors; break;
      case TaskStatus::kBudgetExhausted: ++report.budget_exhausted; break;
      case TaskStatus::kCancelled: ++report.cancelled; break;
    }
    if (r.bdd.peak_nodes > 0) {
      ++report.bdd.tasks;
      report.bdd.peak_nodes_max =
          std::max(report.bdd.peak_nodes_max, r.bdd.peak_nodes);
      report.bdd.unique_hits += r.bdd.unique_hits;
      report.bdd.cache_hits += r.bdd.cache_hits;
      report.bdd.cache_misses += r.bdd.cache_misses;
      report.bdd.cache_evictions += r.bdd.cache_evictions;
    }
  }
  return report;
}

namespace {

void canonical_result(std::ostream& os, const TaskResult& r) {
  os << r.name << " status=" << status_name(r.status) << " formulas="
     << r.formulas << " in=" << r.inputs << " out=" << r.outputs
     << " refined=" << (r.refined ? 1 : 0);
  if (!r.unsatisfiable_requirements.empty()) {
    os << " unsat=";
    for (std::size_t i = 0; i < r.unsatisfiable_requirements.size(); ++i) {
      if (i > 0) os << ',';
      os << r.unsatisfiable_requirements[i];
    }
  }
  // The diagnosis is input-pure (a function of the spec and the pipeline
  // options alone), so unlike cache/bdd statistics it belongs to the
  // canonical contract: byte-identical for any jobs count and cache mode.
  if (!r.mus.empty()) {
    os << " mus=";
    for (std::size_t i = 0; i < r.mus.size(); ++i) {
      if (i > 0) os << ',';
      os << r.mus[i];
    }
  }
  if (!r.correction_sets.empty()) {
    os << " mcs=";
    for (std::size_t s = 0; s < r.correction_sets.size(); ++s) {
      if (s > 0) os << ';';
      for (std::size_t i = 0; i < r.correction_sets[s].size(); ++i) {
        if (i > 0) os << ',';
        os << r.correction_sets[s][i];
      }
    }
  }
  if (r.status == TaskStatus::kError) os << " detail=" << r.detail;
  os << '\n';
}

/// `s` as a quoted JSON string.
std::string json_string(const std::string& s) {
  std::string out;
  serve::json::write_string(out, s);
  return out;
}

}  // namespace

std::string canonical(const BatchReport& report) {
  std::ostringstream os;
  for (const TaskResult& r : report.results) canonical_result(os, r);
  return os.str();
}

std::string canonical_line(const TaskResult& result) {
  std::ostringstream os;
  canonical_result(os, result);
  return os.str();
}

std::string to_json(const BatchReport& report) {
  std::ostringstream os;
  os << "{\n  \"jobs\": " << report.jobs
     << ",\n  \"wall_seconds\": " << report.wall_seconds
     << ",\n  \"cpu_seconds\": " << report.cpu_seconds()
     << ",\n  \"steals\": " << report.steals
     << ",\n  \"consistent\": " << report.consistent
     << ",\n  \"inconsistent\": " << report.inconsistent
     << ",\n  \"errors\": " << report.errors
     << ",\n  \"budget_exhausted\": " << report.budget_exhausted
     << ",\n  \"cancelled\": " << report.cancelled;
  if (report.cache_enabled) {
    const cache::StatsSnapshot& c = report.cache_stats;
    os << ",\n  \"cache\": {\"l1_hits\": " << c.l1_hits
       << ", \"l1_misses\": " << c.l1_misses << ", \"l2_hits\": " << c.l2_hits
       << ", \"l2_misses\": " << c.l2_misses
       << ", \"evictions\": " << c.evictions << "}";
  }
  if (report.bdd.tasks > 0) {
    const BddAggregate& b = report.bdd;
    os << ",\n  \"bdd\": {\"tasks\": " << b.tasks
       << ", \"peak_nodes_max\": " << b.peak_nodes_max
       << ", \"unique_hits\": " << b.unique_hits
       << ", \"cache_hits\": " << b.cache_hits
       << ", \"cache_misses\": " << b.cache_misses
       << ", \"cache_evictions\": " << b.cache_evictions << "}";
  }
  os << ",\n  \"specs\": [\n";
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const TaskResult& r = report.results[i];
    os << "    {\"name\": " << json_string(r.name) << ", \"status\": \""
       << status_name(r.status) << "\", \"formulas\": " << r.formulas
       << ", \"inputs\": " << r.inputs << ", \"outputs\": " << r.outputs
       << ", \"refined\": " << (r.refined ? "true" : "false")
       << ", \"seconds\": " << r.seconds << ", \"worker\": " << r.worker;
    if (!r.mus.empty()) {
      os << ", \"mus\": [";
      for (std::size_t k = 0; k < r.mus.size(); ++k) {
        os << (k > 0 ? ", " : "") << json_string(r.mus[k]);
      }
      os << "]";
    }
    if (!r.correction_sets.empty()) {
      os << ", \"correction_sets\": [";
      for (std::size_t s = 0; s < r.correction_sets.size(); ++s) {
        os << (s > 0 ? ", " : "") << "[";
        for (std::size_t k = 0; k < r.correction_sets[s].size(); ++k) {
          os << (k > 0 ? ", " : "") << json_string(r.correction_sets[s][k]);
        }
        os << "]";
      }
      os << "]";
    }
    if (r.bdd.peak_nodes > 0) {
      os << ", \"bdd_peak_nodes\": " << r.bdd.peak_nodes
         << ", \"bdd_cache_hits\": " << r.bdd.cache_hits
         << ", \"bdd_cache_misses\": " << r.bdd.cache_misses;
    }
    if (!r.detail.empty()) {
      os << ", \"detail\": " << json_string(r.detail);
    }
    os << "}" << (i + 1 < report.results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

void print_summary(std::ostream& os, const BatchReport& report) {
  for (const TaskResult& r : report.results) {
    os << "  " << r.name << ": " << status_name(r.status);
    if (r.status == TaskStatus::kConsistent ||
        r.status == TaskStatus::kInconsistent) {
      os << " (" << r.formulas << " formulas, " << r.inputs << " in, "
         << r.outputs << " out";
      if (r.refined) os << ", refined";
      os << ", " << r.seconds << "s";
      os << ")";
      if (!r.mus.empty()) {
        os << "\n    conflicting sentences:";
        for (const std::string& id : r.mus) os << " " << id;
      }
      for (const auto& mcs : r.correction_sets) {
        os << "\n    fix by removing:";
        for (const std::string& id : mcs) os << " " << id;
      }
    } else if (!r.detail.empty()) {
      os << " (" << r.detail << ")";
    }
    os << "\n";
  }
  os << report.results.size() << " specs with " << report.jobs << " jobs in "
     << report.wall_seconds << "s wall (" << report.cpu_seconds()
     << "s cpu, " << report.steals << " steals): " << report.consistent
     << " consistent, " << report.inconsistent << " inconsistent, "
     << report.errors << " errors, " << report.budget_exhausted
     << " budget-exhausted, " << report.cancelled << " cancelled\n";
  if (report.cache_enabled) cache::print_stats(os, report.cache_stats);
  if (report.bdd.tasks > 0) {
    const BddAggregate& b = report.bdd;
    os << "bdd engine: " << b.tasks << " tasks, peak "
       << b.peak_nodes_max << " nodes, " << b.unique_hits << " unique hits, "
       << b.cache_hits << " cache hits / " << b.cache_misses << " misses / "
       << b.cache_evictions << " evictions\n";
  }
}

}  // namespace speccc::batch
