// Diagnosis cost study: MUS extraction time vs. specification size on
// generated multi-fault corpora (the planted-fault generator of
// difftest/random.hpp) and MCS enumeration.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <iostream>
#include <vector>

#include "diag/diag.hpp"
#include "difftest/harness.hpp"
#include "difftest/oracle.hpp"
#include "refine/refine.hpp"

namespace diag = speccc::diag;
namespace difftest = speccc::difftest;
namespace refine = speccc::refine;

namespace {

constexpr std::uint64_t kSeed = 97;

difftest::FaultConfig sized_config(int base_formulas) {
  difftest::FaultConfig config;
  config.base.min_formulas = base_formulas;
  config.base.max_formulas = base_formulas;
  return config;
}

/// One planted multi-fault spec per base size, generated once: the
/// benchmark measures localization, not generation or translation.
void BM_MusBySpecSize(benchmark::State& state) {
  const auto spec = difftest::generated_planted_spec(
      kSeed, 0, sized_config(static_cast<int>(state.range(0))));
  const difftest::SpecCase sc = difftest::build_spec_case(spec.requirements);
  std::size_t checks = 0;
  for (auto _ : state) {
    const auto loc = refine::localize(sc.requirements, sc.signature);
    benchmark::DoNotOptimize(loc.core.data());
    checks = loc.checks;
  }
  state.counters["requirements"] = static_cast<double>(sc.requirements.size());
  state.counters["realizability_checks"] = static_cast<double>(checks);
}
BENCHMARK(BM_MusBySpecSize)
    ->RangeMultiplier(2)
    ->Range(4, 16)
    ->Unit(benchmark::kMillisecond);

/// Full MCS enumeration (cap 4) over a mid-size multi-fault spec: the
/// rotation/grow loop asks about one question per requirement per
/// enumerated set; the oracle decides each component once.
void BM_McsEnumeration(benchmark::State& state) {
  difftest::FaultConfig config = sized_config(8);
  config.min_faults = config.max_faults = static_cast<int>(state.range(0));
  const auto spec = difftest::generated_planted_spec(kSeed, 0, config);
  const difftest::SpecCase sc = difftest::build_spec_case(spec.requirements);
  std::size_t checks = 0;
  for (auto _ : state) {
    // A fresh oracle per iteration: its memo must not carry over.
    diag::RealizabilityOracle oracle(sc.requirements);
    std::vector<std::size_t> universe(sc.requirements.size());
    for (std::size_t i = 0; i < universe.size(); ++i) universe[i] = i;
    const auto sets = diag::correction_sets(
        universe, oracle.under(sc.signature), 4, checks);
    benchmark::DoNotOptimize(sets.data());
  }
  state.counters["requirements"] = static_cast<double>(sc.requirements.size());
}
BENCHMARK(BM_McsEnumeration)
    ->DenseRange(2, 4, 1)
    ->Unit(benchmark::kMillisecond);

void print_summary() {
  std::cout << "\nMUS localization study (planted multi-fault corpora)\n";
  for (const int base : {4, 8, 16}) {
    const auto spec =
        difftest::generated_planted_spec(kSeed, 0, sized_config(base));
    const difftest::SpecCase sc = difftest::build_spec_case(spec.requirements);
    const auto loc = refine::localize(sc.requirements, sc.signature);
    std::cout << "  " << sc.requirements.size() << " requirements, "
              << spec.faults.size() << " planted faults: " << loc.checks
              << " checks (|MUS| " << loc.core.size() << ")\n";
  }
  std::cout << "  (the first check jumps to the unrealizable components; "
               "deletion then costs\n   about one check per element of them "
               "and guarantees a minimal subset.)\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_summary();
  return 0;
}
