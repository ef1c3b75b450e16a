#include "synth/synthesizer.hpp"

#include "util/diagnostics.hpp"

namespace speccc::synth {

SynthesisResult synthesize(const std::vector<ltl::Formula>& requirements,
                           const IoSignature& signature,
                           const SynthesisOptions& options) {
  if (requirements.empty()) {
    throw util::InvalidInputError(
        "cannot synthesize from an empty specification");
  }
  const auto outcome = symbolic_synthesize(requirements, signature, options.symbolic);
  speccc_check(outcome.has_value(),
               "specification outside the symbolic engine's pattern fragment "
               "(ltl::decompose_patterns) or mentioning propositions missing "
               "from the signature");
  SynthesisResult result;
  result.verdict = outcome->verdict;
  result.state_bits = outcome->state_bits;
  result.peak_bdd_nodes = outcome->peak_bdd_nodes;
  result.bdd_stats = outcome->bdd_stats;
  result.iterations = outcome->fixpoint_iterations;
  result.controller = outcome->controller;
  return result;
}

}  // namespace speccc::synth
