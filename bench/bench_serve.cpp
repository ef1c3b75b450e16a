// Serving latency under concurrent load: the in-process serve::Service
// engine (warm per-worker pipelines, one shared LRU store, bounded
// priority admission) driven closed-loop by concurrent client threads.
// The headline numbers are the latency percentiles -- p50/p95/p99 ride on
// each benchmark row as counters (milliseconds), which is what the CI
// bench job tracks for the daemon path. BM_ServeHotSpec isolates the
// steady-state a resident daemon converges to: one hot specification
// answered from the warm store.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "batch/batch.hpp"
#include "cache/store.hpp"
#include "corpus/generator.hpp"
#include "serve/service.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using speccc::batch::SpecTask;

/// A mixed 16-spec workload at modest Table-I-like scales; seeds fixed so
/// every run serves the same specifications.
std::vector<SpecTask> workload() {
  std::vector<SpecTask> specs;
  for (int i = 0; i < 16; ++i) {
    speccc::corpus::SpecScale scale{
        "serve" + std::to_string(i), 5 + i % 4, 3 + i % 3, 3 + i % 3,
        static_cast<std::uint64_t>(i) * 9176 + 31,
        /*response_percent=*/20, /*timed_percent=*/10};
    specs.push_back({scale.name, speccc::corpus::generate_spec(
                                     scale, speccc::corpus::device_theme())});
  }
  return specs;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t low = static_cast<std::size_t>(rank);
  const std::size_t high = std::min(low + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(low);
  return sorted[low] * (1.0 - frac) + sorted[high] * frac;
}

/// Fire `requests` checks at the service from `clients` closed-loop
/// threads (one outstanding request each); returns per-request latencies
/// in seconds.
std::vector<double> drive(speccc::serve::Service& service,
                          const std::vector<SpecTask>& specs, int clients,
                          int requests) {
  std::vector<double> latencies(static_cast<std::size_t>(requests), 0.0);
  std::atomic<int> next{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const int index = next.fetch_add(1);
        if (index >= requests) return;
        speccc::serve::Request request;
        request.id = "b" + std::to_string(index);
        request.spec = specs[static_cast<std::size_t>(index) % specs.size()];
        const Clock::time_point start = Clock::now();
        const speccc::serve::Response response =
            service.check(std::move(request));
        benchmark::DoNotOptimize(response.kind);
        latencies[static_cast<std::size_t>(index)] =
            std::chrono::duration<double>(Clock::now() - start).count();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return latencies;
}

void report_percentiles(benchmark::State& state, std::vector<double> latencies) {
  std::sort(latencies.begin(), latencies.end());
  state.counters["p50_ms"] = percentile(latencies, 0.50) * 1e3;
  state.counters["p95_ms"] = percentile(latencies, 0.95) * 1e3;
  state.counters["p99_ms"] = percentile(latencies, 0.99) * 1e3;
  state.SetItemsProcessed(static_cast<std::int64_t>(latencies.size()));
}

/// Closed-loop soak at N workers with 2N concurrent clients. The service
/// (and its store) persists across iterations, exactly like a resident
/// daemon; the first iteration warms the cache, steady state dominates.
void BM_ServeClosedLoop(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const std::vector<SpecTask> specs = workload();

  speccc::serve::ServiceOptions options;
  options.workers = workers;
  options.queue_capacity = 1024;  // soak admission, not rejection
  options.pipeline.cache = std::make_shared<speccc::cache::Store>();
  speccc::serve::Service service(options);

  std::vector<double> latencies;
  for (auto _ : state) {
    std::vector<double> round =
        drive(service, specs, /*clients=*/2 * workers, /*requests=*/64);
    latencies.insert(latencies.end(), round.begin(), round.end());
  }
  report_percentiles(state, std::move(latencies));
  service.shutdown();
}
BENCHMARK(BM_ServeClosedLoop)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// The resident-daemon steady state: one hot specification, every
/// artifact already in the store -- pure serve overhead plus cache hits.
void BM_ServeHotSpec(benchmark::State& state) {
  const std::vector<SpecTask> specs = {workload().front()};

  speccc::serve::ServiceOptions options;
  options.workers = 2;
  options.pipeline.cache = std::make_shared<speccc::cache::Store>();
  speccc::serve::Service service(options);
  (void)drive(service, specs, 1, 1);  // warm the store

  std::vector<double> latencies;
  for (auto _ : state) {
    std::vector<double> round = drive(service, specs, /*clients=*/4,
                                      /*requests=*/64);
    latencies.insert(latencies.end(), round.begin(), round.end());
  }
  report_percentiles(state, std::move(latencies));
  service.shutdown();
}
BENCHMARK(BM_ServeHotSpec)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
