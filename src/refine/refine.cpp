#include "refine/refine.hpp"

#include <algorithm>
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

/// Per atom id: whether some requirement of `core` mentions it.
std::vector<bool> core_atoms(const diag::RealizabilityOracle& oracle,
                             const std::vector<std::size_t>& core) {
  std::vector<bool> out(oracle.atom_names().size(), false);
  for (std::size_t i : core) {
    for (std::uint32_t a : oracle.atoms_of(i)) out[a] = true;
  }
  return out;
}

}  // namespace

Localization localize(diag::RealizabilityOracle& oracle,
                      const synth::IoSignature& signature) {
  Localization out;
  const diag::CoreOracle core_of = oracle.under(signature);
  const std::size_t n = oracle.requirements().size();
  ++out.checks;
  const auto full = core_of(all_indices(n));
  speccc_check(full.has_value(),
               "localize precondition: full specification must be unrealizable");
  out.core = diag::shrink_mus(*full, core_of, out.checks);

  // Filtering step: requirements sharing propositions with the core.
  const std::vector<bool> in_core = core_atoms(oracle, out.core);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& atoms = oracle.atoms_of(i);
    if (std::any_of(atoms.begin(), atoms.end(),
                    [&in_core](std::uint32_t a) { return in_core[a]; })) {
      out.related.push_back(i);
    }
  }
  return out;
}

Localization localize(const std::vector<Formula>& requirements,
                      const synth::IoSignature& signature,
                      const synth::SynthesisOptions& options) {
  diag::RealizabilityOracle oracle(requirements, options);
  return localize(oracle, signature);
}

RefinementOutcome refine(diag::RealizabilityOracle& oracle,
                         const partition::Partition& initial,
                         const LocalizeOptions& localize_options) {
  RefinementOutcome outcome;
  outcome.partition = initial;

  const synth::IoSignature signature = initial.signature();
  outcome.localization = localize(oracle, signature);
  outcome.checks = outcome.localization.checks;

  // Candidate variables: propositions of the core, ranked by occurrence
  // count over the core and related requirements (most implicated first;
  // atom ids follow name order, so ties stay alphabetical).
  const std::vector<bool> in_core = core_atoms(oracle, outcome.localization.core);
  std::vector<std::size_t> occurrence(in_core.size(), 0);
  for (std::size_t i : outcome.localization.related) {
    for (std::uint32_t a : oracle.atoms_of(i)) {
      if (in_core[a]) ++occurrence[a];
    }
  }
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t a = 0; a < in_core.size(); ++a) {
    if (in_core[a]) candidates.push_back(a);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&occurrence](std::uint32_t a, std::uint32_t b) {
                     return occurrence[a] > occurrence[b];
                   });

  // Try flipping each candidate (paper V-B bullet 2). Components without
  // the flipped variable keep their signature, so the oracle's memo
  // answers them.
  const std::vector<std::size_t> everything =
      all_indices(oracle.requirements().size());
  for (std::uint32_t atom : candidates) {
    const std::string& variable = oracle.atom_names()[atom];
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
    if (!oracle.core(everything, flipped.signature())) {
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
        everything, oracle.under(signature),
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
  diag::RealizabilityOracle oracle(requirements, options);
  return refine(oracle, initial, localize_options);
}

StageThree stage_three(const std::vector<Formula>& requirements,
                       const partition::Partition& initial,
                       const synth::SynthesisOptions& options,
                       const LocalizeOptions& localize_options,
                       bool refine_first) {
  StageThree out;
  diag::RealizabilityOracle oracle(requirements, options);
  if (refine_first) out.refinement = refine(oracle, initial, localize_options);
  // An unsatisfiable requirement makes the whole specification
  // unimplementable regardless of the partition. The screen runs after
  // refinement so that it skips every requirement of a component
  // refinement found realizable.
  for (std::size_t i = 0; i < requirements.size(); ++i) {
    if (!oracle.satisfiable(i)) out.unsatisfiable.push_back(i);
  }
  return out;
}

}  // namespace speccc::refine
