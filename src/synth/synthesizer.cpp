#include "synth/synthesizer.hpp"

#include "util/diagnostics.hpp"

namespace speccc::synth {

namespace {

void require_nonempty(const std::vector<ltl::Formula>& requirements) {
  if (requirements.empty()) {
    throw util::InvalidInputError(
        "cannot synthesize from an empty specification");
  }
}

}  // namespace

std::optional<SynthesisResult> synthesize_symbolic(
    const std::vector<ltl::Formula>& requirements, const IoSignature& signature,
    const SymbolicOptions& options) {
  require_nonempty(requirements);
  const auto outcome = symbolic_synthesize(requirements, signature, options);
  if (!outcome.has_value()) return std::nullopt;
  SynthesisResult result;
  result.verdict = outcome->verdict;
  result.substrate_used = "symbolic";
  result.state_bits = outcome->state_bits;
  result.peak_bdd_nodes = outcome->peak_bdd_nodes;
  result.bdd_stats = outcome->bdd_stats;
  result.iterations = outcome->fixpoint_iterations;
  result.controller = outcome->controller;
  return result;
}

SynthesisResult synthesize_bounded(const std::vector<ltl::Formula>& requirements,
                                   const IoSignature& signature,
                                   const BoundedOptions& options) {
  require_nonempty(requirements);
  const auto outcome =
      bounded_synthesize(ltl::land(requirements), signature, options);
  SynthesisResult result;
  result.verdict = outcome.verdict;
  result.substrate_used = "bounded";
  result.ucw_states = outcome.ucw_states;
  result.game_positions = outcome.game_positions;
  result.iterations = outcome.k_used;
  result.controller = outcome.controller;
  return result;
}

SynthesisResult synthesize(const std::vector<ltl::Formula>& requirements,
                           const IoSignature& signature,
                           const SynthesisOptions& options) {
  auto result = synthesize_symbolic(requirements, signature, options.symbolic);
  if (result.has_value()) return *std::move(result);
  return synthesize_bounded(requirements, signature, options.bounded);
}

}  // namespace speccc::synth
