#include "core/substrate.hpp"

#include <string>

#include "util/diagnostics.hpp"

namespace speccc::core {

namespace {

/// One engine's own answer, without completion.
synth::SynthesisResult check(Substrate substrate,
                             const std::vector<ltl::Formula>& formulas,
                             const synth::IoSignature& signature,
                             const synth::SynthesisOptions& options) {
  if (substrate == Substrate::kAuto) {
    return synth::synthesize(formulas, signature, options);
  }
  if (substrate == Substrate::kBounded) {
    return synth::synthesize_bounded(formulas, signature, options.bounded);
  }
  auto result = synth::synthesize_symbolic(formulas, signature, options.symbolic);
  if (!result.has_value()) {
    throw util::InvalidInputError(
        "specification is outside the symbolic engine's pattern fragment "
        "or mentions propositions missing from the signature");
  }
  return *std::move(result);
}

}  // namespace

Substrate parse_substrate(std::string_view text) {
  for (const Substrate substrate :
       {Substrate::kAuto, Substrate::kBounded, Substrate::kSymbolic}) {
    if (text == substrate_name(substrate)) return substrate;
  }
  throw util::InvalidInputError("substrate \"" + std::string(text) +
                                "\": expected auto, bounded, symbolic");
}

std::string_view substrate_name(Substrate substrate) {
  switch (substrate) {
    case Substrate::kAuto: return "auto";
    case Substrate::kBounded: return "bounded";
    case Substrate::kSymbolic: return "symbolic";
  }
  return "auto";
}

synth::SynthesisResult decide(Substrate substrate,
                              const std::vector<ltl::Formula>& formulas,
                              const synth::IoSignature& signature,
                              const synth::SynthesisOptions& options,
                              const CancelFn& cancelled) {
  synth::SynthesisOptions polled = options;
  polled.bounded.cancelled = cancelled;
  polled.symbolic.cancelled = cancelled;
  synth::SynthesisResult result = check(substrate, formulas, signature, polled);
  if (result.verdict != synth::Realizability::kUnknown ||
      substrate == Substrate::kAuto) {
    return result;
  }
  return check(Substrate::kAuto, formulas, signature, polled);
}

}  // namespace speccc::core
