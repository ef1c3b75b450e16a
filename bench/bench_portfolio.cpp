// Substrate latency on the standing slow seed of the fuzz corpus (seed 6 /
// spec case 21 -- the spec whose auto path escalates into the expensive
// bounded run): auto next to each solo engine, so a regression names the
// lane that slowed down.
#include <benchmark/benchmark.h>

#include "core/pipeline.hpp"
#include "core/substrate.hpp"
#include "difftest/harness.hpp"

namespace {

using speccc::core::Pipeline;
using speccc::core::PipelineOptions;
using speccc::core::Substrate;

/// The pinned slow spec, generated once per process.
const speccc::difftest::GeneratedSpec& slow_seed_spec() {
  static const speccc::difftest::GeneratedSpec spec =
      speccc::difftest::generated_spec(6, 21);
  return spec;
}

void run_with(benchmark::State& state, Substrate substrate) {
  PipelineOptions options;
  options.substrate = substrate;
  // Measure the decision substrate, not stage 3.
  options.refine_on_failure = false;
  // The difftest oracle's give-up caps, applied uniformly to every lane:
  // uncapped bounded synthesis grinds for minutes on this seed, and a
  // pinned CI bench must abstain at the caps, not reproduce the grind.
  options.synthesis.bounded.max_k = 4;
  options.synthesis.bounded.max_game_positions = 20'000;
  options.synthesis.bounded.max_ucw_states = 150;
  const Pipeline pipeline(options);
  const auto& spec = slow_seed_spec();
  for (auto _ : state) {
    const auto result = pipeline.run(spec.name, spec.requirements);
    benchmark::DoNotOptimize(result.consistent);
  }
}

void BM_PortfolioSlowSeedAuto(benchmark::State& state) {
  run_with(state, Substrate::kAuto);
}
BENCHMARK(BM_PortfolioSlowSeedAuto)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PortfolioSlowSeedSoloBounded(benchmark::State& state) {
  run_with(state, Substrate::kBounded);
}
BENCHMARK(BM_PortfolioSlowSeedSoloBounded)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PortfolioSlowSeedSoloSymbolic(benchmark::State& state) {
  run_with(state, Substrate::kSymbolic);
}
BENCHMARK(BM_PortfolioSlowSeedSoloSymbolic)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
