// The rescue-robot scenario (Table I / Robot): translate the structured
// English in strict Next mode, synthesize a controller, and simulate a
// rescue episode, verifying the trace against the translated specification.
//
//   $ ./robot_synthesis [rooms]
#include <iostream>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "corpus/robot.hpp"
#include "ltl/formula.hpp"
#include "ltl/trace.hpp"

int main(int argc, char** argv) {
  using namespace speccc;

  const int rooms = argc > 1 ? std::max(2, std::atoi(argv[1])) : 4;
  const auto spec = corpus::robot_spec(1, rooms);

  std::cout << "=== " << spec.name << " ===\n";
  for (const auto& r : spec.requirements) {
    std::cout << "  " << r.text << "\n";
  }

  core::PipelineOptions options;
  options.translation.next_mode = translate::NextMode::kStrict;
  options.synthesis.extract = true;
  core::Pipeline pipeline(options);
  const auto result = pipeline.run(spec.name, spec.requirements);
  std::cout << "\n" << core::describe(result);

  if (!result.synthesis.controller.has_value()) {
    std::cout << "no controller extracted\n";
    return 1;
  }
  const auto& machine = *result.synthesis.controller;
  std::cout << "controller states: " << machine.num_states() << "\n";

  // Simulate: the injured person appears at step 2 (input bit 0 or 1
  // depending on the signature order).
  const auto& inputs = machine.signature().inputs;
  synth::Word injured_mask = 0;
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    if (inputs[b].find("injured") != std::string::npos) {
      injured_mask = synth::Word{1} << b;
    }
  }
  std::vector<synth::Word> prefix = {0, 0, injured_mask};
  std::vector<synth::Word> loop = {0};
  const ltl::Lasso trace = machine.lasso(prefix, loop);

  std::cout << "\n=== simulated episode (injured person visible at step 2) "
               "===\n";
  for (std::size_t t = 0; t < trace.size(); ++t) {
    std::cout << "  t=" << t << (t == trace.loop_start() ? " (loop)" : "")
              << " :";
    for (const auto& p : trace.at(t)) std::cout << " " << p;
    std::cout << "\n";
  }

  // Verify every requirement on the produced lasso.
  bool all_hold = true;
  for (const auto& r : result.translation.requirements) {
    if (!ltl::evaluate(r.formula, trace)) {
      std::cout << "VIOLATED: " << r.id << " " << ltl::to_string(r.formula)
                << "\n";
      all_hold = false;
    }
  }
  std::cout << (all_hold ? "\nall requirements hold on the simulated trace\n"
                         : "\ntrace violates the specification!\n");
  return all_hold ? 0 : 1;
}
