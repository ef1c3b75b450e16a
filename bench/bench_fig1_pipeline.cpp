// Figure 1 (the SpecCC workflow): per-stage cost of the three-stage loop,
// and the paper's Section VI claim that "for the consistency maintenance
// between natural language and formal language, the time consumption is
// linear to the number of requirements" -- checked with google-benchmark's
// complexity fit over generated specifications of growing size.
#include <benchmark/benchmark.h>

#include <iostream>
#include <optional>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "corpus/cara.hpp"
#include "corpus/generator.hpp"
#include "partition/partition.hpp"
#include "semantics/antonyms.hpp"
#include "timeabs/abstraction.hpp"
#include "translate/translator.hpp"

namespace {

using speccc::corpus::SpecScale;

std::vector<speccc::translate::RequirementText> spec_of_size(int formulas) {
  SpecScale scale{"sweep", formulas, std::max(2, formulas / 2),
                  std::max(2, (2 * formulas) / 3),
                  /*seed=*/static_cast<std::uint64_t>(formulas) * 97 + 3,
                  /*response_percent=*/15, /*timed_percent=*/10};
  return speccc::corpus::generate_spec(scale, speccc::corpus::device_theme());
}

// Stage 1 alone: NL -> LTL translation, the claimed linear stage.
void BM_Stage1Translation(benchmark::State& state) {
  const auto texts = spec_of_size(static_cast<int>(state.range(0)));
  const auto lexicon = speccc::nlp::Lexicon::builtin();
  const auto dictionary = speccc::semantics::AntonymDictionary::builtin();
  const speccc::translate::Translator translator(lexicon, dictionary, {});
  for (auto _ : state) {
    auto result = translator.translate(texts);
    benchmark::DoNotOptimize(result.requirements.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Stage1Translation)
    ->RangeMultiplier(2)
    ->Range(8, 256)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

// Stage 1 as the pipeline runs it on timed specs: one translation pass
// whose Theta goes through the time abstraction (Pipeline::translate, no
// cache). range(0) 0 is the CARA running example (Theta = {3, 180, 60});
// any other value is a generated spec of that many requirements, half of
// them timed.
void BM_Stage1PipelineTimed(benchmark::State& state) {
  const int formulas = static_cast<int>(state.range(0));
  std::vector<speccc::translate::RequirementText> texts;
  if (formulas == 0) {
    texts = speccc::corpus::cara_working_mode_texts();
  } else {
    SpecScale scale{"timed", formulas, std::max(2, formulas / 2),
                    std::max(2, (2 * formulas) / 3),
                    /*seed=*/static_cast<std::uint64_t>(formulas) * 97 + 5,
                    /*response_percent=*/15, /*timed_percent=*/50};
    texts = speccc::corpus::generate_spec(scale, speccc::corpus::device_theme());
  }
  const speccc::core::Pipeline pipeline;
  for (auto _ : state) {
    std::optional<speccc::timeabs::Abstraction> abstraction;
    auto result = pipeline.translate(texts, abstraction);
    benchmark::DoNotOptimize(result.requirements.size());
    benchmark::DoNotOptimize(abstraction.has_value());
  }
}
BENCHMARK(BM_Stage1PipelineTimed)
    ->Arg(0)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);

// Stage 2 alone: realizability checking of the already-translated (and
// time-abstracted) CARA specification, as stage 2 actually receives it.
void BM_Stage2Synthesis(benchmark::State& state) {
  speccc::core::Pipeline setup;
  const auto staged =
      setup.run("setup", speccc::corpus::cara_working_mode_texts());
  const auto formulas = staged.translation.formulas();
  const speccc::synth::IoSignature signature = staged.partition.signature();
  for (auto _ : state) {
    auto result = speccc::synth::synthesize(formulas, signature);
    benchmark::DoNotOptimize(result.verdict);
  }
}
BENCHMARK(BM_Stage2Synthesis)->Unit(benchmark::kMillisecond);

// The full loop on the running example.
void BM_FullPipelineCara(benchmark::State& state) {
  speccc::core::Pipeline pipeline;
  const auto texts = speccc::corpus::cara_working_mode_texts();
  for (auto _ : state) {
    auto result = pipeline.run("CARA", texts);
    benchmark::DoNotOptimize(result.consistent);
  }
}
BENCHMARK(BM_FullPipelineCara)->Unit(benchmark::kMillisecond);

void print_stage_breakdown() {
  speccc::core::Pipeline pipeline;
  const auto result =
      pipeline.run("CARA working mode", speccc::corpus::cara_working_mode_texts());
  std::cout << "\nFig. 1 stage breakdown on the CARA running example\n"
            << speccc::core::describe(result);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_stage_breakdown();
  return 0;
}
