// Section IV-E walkthrough: the GCD reduction versus the optimal divisor
// abstraction on the paper's running example Theta = {3, 180, 60}, and the
// effect of the abstraction on monitor sizes.
//
//   $ ./time_abstraction [B]
#include <iostream>

#include "corpus/cara.hpp"
#include "core/pipeline.hpp"
#include "timeabs/abstraction.hpp"

int main(int argc, char** argv) {
  using namespace speccc;

  const std::uint32_t budget =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 5;

  const std::vector<std::uint32_t> thetas = {3, 180, 60};
  std::cout << "Theta = {3, 180, 60} (Req-08, Req-28, Req-42), B = " << budget
            << ", all arrival errors early (Delta >= 0)\n\n";

  const auto gcd = timeabs::gcd_abstraction(thetas);
  std::cout << "GCD reduction: d = " << gcd.divisor << ", theta' = {";
  for (std::size_t i = 0; i < gcd.reduced.size(); ++i) {
    std::cout << (i ? ", " : "") << gcd.reduced[i];
  }
  std::cout << "}, total X operators " << gcd.reduced_sum
            << " (conservative, zero error)\n";

  timeabs::Request request;
  request.thetas = thetas;
  request.error_budget = budget;

  const timeabs::Abstraction abs = timeabs::optimize(request);
  std::cout << "optimal (exact divisor enumeration): d = " << abs.divisor
            << ", theta' = {";
  for (std::size_t i = 0; i < abs.reduced.size(); ++i) {
    std::cout << (i ? ", " : "") << abs.reduced[i];
  }
  std::cout << "}, Delta = {";
  for (std::size_t i = 0; i < abs.errors.size(); ++i) {
    std::cout << (i ? ", " : "") << abs.errors[i];
  }
  std::cout << "}, total X " << abs.reduced_sum << ", total error "
            << abs.error_sum << "\n";

  // Effect on the full CARA specification: monitor state bits with and
  // without abstraction.
  std::cout << "\nEffect on the CARA working-mode monitors:\n";
  {
    core::Pipeline with;
    const auto result =
        with.run("CARA abstracted", corpus::cara_working_mode_texts());
    std::cout << "  with abstraction:    " << result.synthesis.state_bits
              << " state bits, synthesis " << result.synthesis_seconds
              << " s\n";
  }
  {
    core::PipelineOptions options;
    options.time_abstraction = false;
    core::Pipeline without(options);
    const auto result =
        without.run("CARA raw", corpus::cara_working_mode_texts());
    std::cout << "  without abstraction: " << result.synthesis.state_bits
              << " state bits, synthesis " << result.synthesis_seconds
              << " s\n";
  }
  return 0;
}
