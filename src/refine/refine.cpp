#include "refine/refine.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "diag/diag.hpp"
#include "util/diagnostics.hpp"

namespace speccc::refine {

namespace {

using ltl::Formula;

std::vector<std::size_t> all_indices(std::size_t n) {
  std::vector<std::size_t> out(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  return out;
}

}  // namespace

Localization localize(const std::vector<Formula>& requirements,
                      const synth::IoSignature& signature,
                      const synth::Decide& decide) {
  Localization out;
  const diag::CoreOracle oracle =
      diag::synthesis_oracle(requirements, signature, decide);
  ++out.checks;
  const auto full = oracle(all_indices(requirements.size()));
  speccc_check(full.has_value(),
               "localize precondition: full specification must be unrealizable");
  out.core = diag::shrink_mus(*full, oracle, out.checks);

  // Filtering step: requirements sharing propositions with the core.
  const std::vector<std::size_t>& core = out.core;
  std::set<std::string> core_props;
  for (std::size_t i : core) {
    const auto atoms = requirements[i].atoms();
    core_props.insert(atoms.begin(), atoms.end());
  }
  for (std::size_t i = 0; i < requirements.size(); ++i) {
    const auto atoms = requirements[i].atoms();
    const bool shares = std::any_of(atoms.begin(), atoms.end(),
                                    [&core_props](const std::string& a) {
                                      return core_props.count(a) > 0;
                                    });
    if (shares) out.related.push_back(i);
  }
  return out;
}

RefinementOutcome refine(const std::vector<Formula>& requirements,
                         const partition::Partition& initial,
                         const synth::Decide& decide,
                         const LocalizeOptions& localize_options) {
  RefinementOutcome outcome;
  outcome.partition = initial;

  const synth::IoSignature signature = initial.signature();
  outcome.localization = localize(requirements, signature, decide);
  outcome.checks = outcome.localization.checks;

  // Candidate variables: propositions of the core, ranked by occurrence
  // count over the core and related requirements (most implicated first).
  std::set<std::string> core_props;
  for (std::size_t i : outcome.localization.core) {
    const auto atoms = requirements[i].atoms();
    core_props.insert(atoms.begin(), atoms.end());
  }
  std::map<std::string, std::size_t> occurrence;
  for (std::size_t i : outcome.localization.related) {
    for (const auto& a : requirements[i].atoms()) {
      if (core_props.count(a) > 0) ++occurrence[a];
    }
  }
  std::vector<std::string> candidates(core_props.begin(), core_props.end());
  std::sort(candidates.begin(), candidates.end(),
            [&occurrence](const std::string& a, const std::string& b) {
              const auto ca = occurrence[a];
              const auto cb = occurrence[b];
              return ca != cb ? ca > cb : a < b;
            });

  // Try flipping each candidate (paper V-B bullet 2).
  for (const std::string& variable : candidates) {
    partition::Partition flipped = initial;
    const bool was_input = flipped.is_input(variable);
    if (was_input) {
      flipped.inputs.erase(variable);
      flipped.outputs.insert(variable);
    } else {
      flipped.outputs.erase(variable);
      flipped.inputs.insert(variable);
    }
    if (flipped.inputs.empty()) continue;  // a system needs some input
    ++outcome.checks;
    if (decide(requirements, flipped.signature()) ==
        synth::Realizability::kRealizable) {
      outcome.consistent = true;
      outcome.adjustment = Adjustment{variable, !was_input};
      outcome.partition = flipped;
      return outcome;
    }
  }

  // No adjustment helps: genuinely inconsistent (paper V-B bullet 3 -- the
  // requirements themselves must be modified). Enumerate the minimal
  // correction sets now, so the diagnosis says which sentence removals
  // would restore consistency.
  outcome.consistent = false;
  if (localize_options.max_correction_sets > 0) {
    std::size_t checks = 0;
    outcome.localization.correction_sets = diag::correction_sets(
        all_indices(requirements.size()),
        diag::synthesis_oracle(requirements, signature, decide),
        localize_options.max_correction_sets, checks);
    outcome.localization.checks += checks;
    outcome.checks += checks;
  }
  return outcome;
}

RefinementOutcome refine(const std::vector<Formula>& requirements,
                         const partition::Partition& initial,
                         const synth::SynthesisOptions& options,
                         const LocalizeOptions& localize_options) {
  return refine(requirements, initial, diag::synthesize_decide(options),
                localize_options);
}

}  // namespace speccc::refine
