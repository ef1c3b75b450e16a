// Quickstart: the whole SpecCC loop on a four-requirement thermostat spec.
//
//   $ ./quickstart
//
// Shows: structured-English input, the translated LTL, the input/output
// partition, the realizability verdict, and a synthesized controller run on
// a sample input trace. Also demonstrates the paper's Section I footnote:
// a specification demanding clairvoyance is reported inconsistent.
#include <iostream>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "ltl/formula.hpp"
#include "ltl/parser.hpp"
#include "synth/bounded.hpp"

int main() {
  using namespace speccc;

  const std::vector<translate::RequirementText> spec = {
      {"R1", "If the temperature sensor is high, the fan is activated."},
      {"R2", "If the temperature sensor is low, the fan is not activated."},
      {"R3", "When the test button is pressed, eventually the status light "
             "is activated."},
      {"R4", "If the power switch is off, the alarm is raised in 2 "
             "seconds."},
  };

  std::cout << "=== requirements ===\n";
  for (const auto& r : spec) std::cout << "  " << r.id << ": " << r.text << "\n";

  core::PipelineOptions options;
  options.synthesis.extract = true;  // build a controller
  core::Pipeline pipeline(options);
  const auto result = pipeline.run("thermostat", spec);

  std::cout << "\n=== translated formulas ===\n";
  for (const auto& r : result.translation.requirements) {
    std::cout << "  " << r.id << ": " << ltl::to_string(r.formula) << "\n";
  }

  std::cout << "\n=== partition ===\n  inputs: ";
  for (const auto& p : result.partition.inputs) std::cout << p << " ";
  std::cout << "\n  outputs:";
  for (const auto& p : result.partition.outputs) std::cout << " " << p;
  std::cout << "\n\n" << core::describe(result);

  if (result.synthesis.controller.has_value()) {
    const auto& machine = *result.synthesis.controller;
    std::cout << "\n=== controller (" << machine.num_states()
              << " states) on a sample run ===\n";
    // Inputs indexed by the signature order printed above.
    const auto& inputs = machine.signature().inputs;
    std::vector<synth::Word> stimulus = {0, 1, 2, 4, 0};
    int state = machine.initial();
    for (synth::Word in : stimulus) {
      const auto out = machine.output(state, in);
      std::cout << "  step: inputs {";
      for (std::size_t b = 0; b < inputs.size(); ++b) {
        if ((in >> b) & 1) std::cout << " " << inputs[b];
      }
      std::cout << " } -> outputs {";
      for (std::size_t b = 0; b < machine.signature().outputs.size(); ++b) {
        if ((out >> b) & 1) std::cout << " " << machine.signature().outputs[b];
      }
      std::cout << " }\n";
      state = machine.next(state, in);
    }
  }

  // The paper's footnote: G (output <-> X X X input) is unrealizable.
  std::cout << "\n=== the clairvoyance footnote ===\n";
  const auto footnote = synth::bounded_synthesize(
      ltl::parse("G (output <-> X X X input)"), {{"input"}, {"output"}});
  std::cout << "  G (output <-> X X X input): "
            << (footnote.verdict == synth::Realizability::kUnrealizable
                    ? "unrealizable, as the paper argues"
                    : "unexpected verdict!")
            << "\n";
  return 0;
}
