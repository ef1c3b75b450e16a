// Tests for the parallel batch-checking subsystem: the determinism
// contract (N-thread verdicts byte-identical to sequential over all three
// Table I corpora and a fixed difftest seed), budget exhaustion,
// cancellation, and error isolation.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "batch/batch.hpp"
#include "batch/corpus_tasks.hpp"
#include "cache/store.hpp"
#include "core/pipeline.hpp"
#include "corpus/generator.hpp"
#include "difftest/harness.hpp"
#include "difftest/random.hpp"
#include "util/diagnostics.hpp"

namespace batch = speccc::batch;
namespace difftest = speccc::difftest;

namespace {

/// The difftest spec generator with speccc_fuzz's seed derivation
/// (difftest::generated_spec): batch task k == fuzz spec case k of --seed S.
std::vector<batch::SpecTask> generated_tasks(std::uint64_t master_seed,
                                             int count) {
  std::vector<batch::SpecTask> tasks;
  for (int index = 0; index < count; ++index) {
    auto spec = difftest::generated_spec(master_seed, index);
    tasks.push_back({std::move(spec.name), std::move(spec.requirements)});
  }
  return tasks;
}

batch::BatchReport run_with_jobs(const std::vector<batch::SpecTask>& tasks,
                                 int jobs) {
  batch::BatchOptions options;
  options.jobs = jobs;
  return batch::check(tasks, options);
}

}  // namespace

// The acceptance contract: verdicts under N workers are byte-identical to
// the sequential run for N in {1, 4, 8}, over all three Table I corpora.
TEST(BatchDeterminism, ParallelMatchesSequentialOverAllThreeCorpora) {
  const std::vector<batch::SpecTask> tasks = batch::table1_tasks();
  ASSERT_EQ(tasks.size(), 22u);  // 14 CARA + 5 TELE + 3 Robot

  const std::string sequential = batch::canonical(run_with_jobs(tasks, 1));
  EXPECT_FALSE(sequential.empty());
  for (const int jobs : {4, 8}) {
    EXPECT_EQ(batch::canonical(run_with_jobs(tasks, jobs)), sequential)
        << "jobs=" << jobs;
  }
}

// The batch verdicts are the pipeline's verdicts: cross-check the report
// against direct sequential Pipeline::run calls.
TEST(BatchDeterminism, VerdictsMatchDirectPipelineRuns) {
  const std::vector<batch::SpecTask> tasks = batch::robot_tasks();
  const batch::BatchReport report = run_with_jobs(tasks, 4);
  ASSERT_EQ(report.results.size(), tasks.size());

  const speccc::core::Pipeline pipeline;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto direct = pipeline.run(tasks[i].name, tasks[i].requirements);
    EXPECT_EQ(report.results[i].name, tasks[i].name);
    EXPECT_EQ(report.results[i].status == batch::TaskStatus::kConsistent,
              direct.consistent)
        << tasks[i].name;
    EXPECT_EQ(report.results[i].formulas, direct.num_formulas());
    EXPECT_EQ(report.results[i].inputs, direct.num_inputs());
    EXPECT_EQ(report.results[i].outputs, direct.num_outputs());
  }
}

TEST(BatchDeterminism, FixedDifftestSeedMatchesSequential) {
  const std::vector<batch::SpecTask> tasks = generated_tasks(7, 10);
  const std::string sequential = batch::canonical(run_with_jobs(tasks, 1));
  EXPECT_EQ(batch::canonical(run_with_jobs(tasks, 4)), sequential);
}

// The cache acceptance contract: canonical reports are byte-identical
// with the memoization store on vs. off, for N in {1, 4, 8}, over all 22
// Table I corpus rows — both against a cold store and against a store
// pre-warmed by a previous batch (all-hits path).
TEST(BatchDeterminism, CacheOnMatchesCacheOffForAllWorkerCounts) {
  const std::vector<batch::SpecTask> tasks = batch::table1_tasks();
  const std::string uncached = batch::canonical(run_with_jobs(tasks, 1));

  batch::BatchOptions options;
  options.pipeline.cache = std::make_shared<speccc::cache::Store>();
  for (const int jobs : {1, 4, 8}) {
    options.jobs = jobs;
    const batch::BatchReport report = batch::check(tasks, options);
    EXPECT_EQ(batch::canonical(report), uncached) << "jobs=" << jobs;
    EXPECT_TRUE(report.cache_enabled);
  }
}

// The diagnosis acceptance contract: with MCS enumeration on, canonical
// reports stay byte-identical across worker counts and cache modes over
// all 22 Table I rows -- MUS and correction sets are input-pure, so they
// belong inside the canonical form like verdicts do.
TEST(BatchDeterminism, DiagnosisKeepsCanonicalAcrossJobsAndCacheModes) {
  const std::vector<batch::SpecTask> tasks = batch::table1_tasks();
  batch::BatchOptions options;
  options.pipeline.localization.max_correction_sets = 4;
  options.jobs = 1;
  const std::string sequential = batch::canonical(batch::check(tasks, options));
  // The two refined TELEPROMISE rows surface their MUS in the canonical
  // report even though refinement rescued them (mcs= stays reserved for
  // genuinely inconsistent specs).
  EXPECT_NE(sequential.find(" mus="), std::string::npos);
  EXPECT_EQ(sequential.find(" mcs="), std::string::npos);
  for (const int jobs : {4, 8}) {
    options.jobs = jobs;
    EXPECT_EQ(batch::canonical(batch::check(tasks, options)), sequential)
        << "jobs=" << jobs;
  }
  options.pipeline.cache = std::make_shared<speccc::cache::Store>();
  for (const int jobs : {1, 4, 8}) {
    options.jobs = jobs;
    EXPECT_EQ(batch::canonical(batch::check(tasks, options)), sequential)
        << "cached jobs=" << jobs;
  }
}

// Diagnosis output never changes verdicts: the canonical report with
// enumeration on equals the plain report once the diagnosis fields are
// the only difference -- over Table I they are not even that, because all
// 22 rows are consistent (the CLI smoke in scripts/check.sh diffs the two
// full reports for exactly this reason).
TEST(BatchDeterminism, DiagnosisOverConsistentCorpusMatchesPlainReport) {
  const std::vector<batch::SpecTask> tasks = batch::table1_tasks();
  const std::string plain = batch::canonical(run_with_jobs(tasks, 2));
  batch::BatchOptions options;
  options.jobs = 2;
  options.pipeline.localization.max_correction_sets = 4;
  EXPECT_EQ(batch::canonical(batch::check(tasks, options)), plain);
}

// A second batch over a warm shared store answers from the cache (the
// cross-batch reuse the revision workflow relies on) without changing a
// byte of the canonical report.
TEST(BatchCache, WarmStoreHitsAcrossBatchesAndKeepsVerdicts) {
  const std::vector<batch::SpecTask> tasks = batch::robot_tasks();
  batch::BatchOptions options;
  options.jobs = 2;
  options.pipeline.cache = std::make_shared<speccc::cache::Store>();

  const batch::BatchReport cold = batch::check(tasks, options);
  const batch::BatchReport warm = batch::check(tasks, options);

  EXPECT_EQ(batch::canonical(warm), batch::canonical(cold));
  EXPECT_GT(cold.cache_stats.misses(), 0u);
  EXPECT_GT(warm.cache_stats.hits(), 0u);
  // Every decision of the warm batch is memoized: no level-2 misses.
  EXPECT_EQ(warm.cache_stats.l2_misses, 0u);
  EXPECT_EQ(warm.cache_stats.l1_misses, 0u);
}

// Without a store the report says so and carries zeroed counters.
TEST(BatchCache, DisabledByDefault) {
  const batch::BatchReport report = run_with_jobs(batch::robot_tasks(), 1);
  EXPECT_FALSE(report.cache_enabled);
  EXPECT_EQ(report.cache_stats.hits() + report.cache_stats.misses(), 0u);
  EXPECT_EQ(batch::to_json(report).find("\"cache\""), std::string::npos);
}

TEST(BatchScheduler, ResultsKeepInputOrderAndWorkerIdsAreInRange) {
  const std::vector<batch::SpecTask> tasks = batch::telepromise_tasks();
  const batch::BatchReport report = run_with_jobs(tasks, 3);
  ASSERT_EQ(report.results.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(report.results[i].name, tasks[i].name);
    EXPECT_GE(report.results[i].worker, 0);
    EXPECT_LT(report.results[i].worker, report.jobs);
  }
  EXPECT_EQ(report.consistent + report.inconsistent + report.errors +
                report.budget_exhausted + report.cancelled,
            tasks.size());
}

TEST(BatchScheduler, BudgetExhaustionIsReportedPerTask) {
  batch::BatchOptions options;
  options.jobs = 2;
  options.task_time_budget_seconds = 1e-9;  // expires at the first poll
  const batch::BatchReport report =
      batch::check(batch::robot_tasks(), options);
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_EQ(report.budget_exhausted, 3u);
  for (const batch::TaskResult& r : report.results) {
    EXPECT_EQ(r.status, batch::TaskStatus::kBudgetExhausted);
    EXPECT_NE(r.detail.find("cancelled before"), std::string::npos);
  }
}

TEST(BatchScheduler, PreRaisedCancelFlagDrainsTheQueue) {
  std::atomic<bool> cancel{true};
  batch::BatchOptions options;
  options.jobs = 4;
  options.cancel = &cancel;
  const batch::BatchReport report =
      batch::check(batch::table1_tasks(), options);
  EXPECT_EQ(report.cancelled, report.results.size());
  for (const batch::TaskResult& r : report.results) {
    EXPECT_EQ(r.status, batch::TaskStatus::kCancelled);
  }
}

TEST(BatchScheduler, MidBatchCancellationStopsRemainingTasks) {
  std::atomic<bool> cancel{false};
  batch::BatchOptions options;
  options.jobs = 1;  // deterministic completion order
  options.cancel = &cancel;
  options.on_result = [&](const batch::TaskResult&) { cancel = true; };
  const batch::BatchReport report =
      batch::check(batch::robot_tasks(), options);
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_EQ(report.results[0].status, batch::TaskStatus::kConsistent);
  EXPECT_EQ(report.results[1].status, batch::TaskStatus::kCancelled);
  EXPECT_EQ(report.results[2].status, batch::TaskStatus::kCancelled);
  EXPECT_EQ(report.cancelled, 2u);
}

TEST(BatchScheduler, TaskErrorsAreIsolated) {
  std::vector<batch::SpecTask> tasks = batch::robot_tasks();
  tasks.insert(tasks.begin() + 1,
               {"broken", {{"B1", "colorless green ideas sleep furiously"}}});
  const batch::BatchReport report = run_with_jobs(tasks, 2);
  ASSERT_EQ(report.results.size(), 4u);
  EXPECT_EQ(report.results[1].status, batch::TaskStatus::kError);
  EXPECT_FALSE(report.results[1].detail.empty());
  EXPECT_EQ(report.errors, 1u);
  EXPECT_EQ(report.consistent, 3u);  // the robot rows still checked
}

TEST(BatchScheduler, EmptyBatchIsTrivial) {
  const batch::BatchReport report = batch::check({}, {});
  EXPECT_TRUE(report.results.empty());
  EXPECT_TRUE(report.all_consistent());
  EXPECT_EQ(report.steals, 0u);
}

TEST(BatchReporting, JsonContainsEverySpecAndTheJobCount) {
  const batch::BatchReport report = run_with_jobs(batch::robot_tasks(), 2);
  const std::string json = batch::to_json(report);
  EXPECT_NE(json.find("\"jobs\": 2"), std::string::npos);
  for (const batch::TaskResult& r : report.results) {
    EXPECT_NE(json.find(r.name), std::string::npos);
  }
}

// The per-worker BDD manager counters are aggregated into the report and
// the JSON document, but stay out of the canonical form: they are engine
// diagnostics, not verdicts.
TEST(BatchReporting, BddStatsSurfaceInJsonButNotInCanonical) {
  const batch::BatchReport report = run_with_jobs(batch::robot_tasks(), 2);
  // Robot corpus specs sit in the symbolic engine's pattern fragment.
  EXPECT_GT(report.bdd.tasks, 0u);
  EXPECT_GT(report.bdd.peak_nodes_max, 0u);
  const std::string json = batch::to_json(report);
  EXPECT_NE(json.find("\"bdd\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_nodes_max\""), std::string::npos);
  EXPECT_NE(json.find("\"bdd_peak_nodes\""), std::string::npos);
  const std::string canon = batch::canonical(report);
  EXPECT_EQ(canon.find("bdd"), std::string::npos);
  EXPECT_EQ(canon.find("peak"), std::string::npos);
}
