// Heuristic refinement (paper Section V-B): when synthesis reports the
// specification unrealizable, (1) locate a minimal inconsistent requirement
// core, (2) filter the requirements sharing propositions with it, and
// (3) try adjusting the input/output partition of the implicated variables;
// only if no adjustment helps is the specification declared genuinely
// inconsistent (the requirements themselves must change) -- and then the
// diag engine enumerates minimal correction sets, the alternative sentence
// removals that would restore consistency.
//
// Every question is asked of one diag::RealizabilityOracle, which decides
// output-connected components and memoizes their verdicts: the MUS shrink
// jumps straight to the unrealizable components, and a partition flip
// re-decides only the components holding the flipped variable.
// Localization runs on the diag MUS engine (deletion-based shrinking with
// core jumps); the planted-fault ground truth and diag_test's brute-force
// minimality checks verify it independently.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "diag/diag.hpp"
#include "ltl/formula.hpp"
#include "partition/partition.hpp"
#include "synth/synthesizer.hpp"

namespace speccc::refine {

struct LocalizeOptions {
  /// Minimal correction sets to enumerate for genuinely inconsistent
  /// specifications (0 disables the diag MaxSAT loop). refine() runs it
  /// only after partition adjustment has failed, so
  /// consistent-after-refinement specs never pay for it.
  std::size_t max_correction_sets = 0;
};

struct Localization {
  /// Indices of a minimal inconsistent requirement subset (MUS).
  std::vector<std::size_t> core;
  /// Minimal correction sets (diag::correction_sets order: smallest
  /// first): removing any one restores consistency. Filled by refine()
  /// when LocalizeOptions::max_correction_sets asked for them.
  std::vector<std::vector<std::size_t>> correction_sets;
  /// Indices of requirements sharing propositions with the core (the
  /// paper's filtering step) -- includes the core itself.
  std::vector<std::size_t> related;
  /// Number of oracle questions asked.
  std::size_t checks = 0;
};

/// Locate a minimal inconsistent core (paper V-B bullet 1) with the diag
/// MUS engine, every probe asked of `oracle` under `signature`.
/// Precondition (checked): the full conjunction is not realizable under
/// `signature`.
[[nodiscard]] Localization localize(diag::RealizabilityOracle& oracle,
                                    const synth::IoSignature& signature);

/// localize() with an oracle of its own over `requirements`.
[[nodiscard]] Localization localize(
    const std::vector<ltl::Formula>& requirements,
    const synth::IoSignature& signature,
    const synth::SynthesisOptions& options = {});

struct Adjustment {
  std::string variable;
  bool now_input = false;  // direction of the flip
};

struct RefinementOutcome {
  bool consistent = false;  // true if an adjustment restored realizability
  std::optional<Adjustment> adjustment;
  partition::Partition partition;  // final partition (adjusted or original)
  Localization localization;
  std::size_t checks = 0;  // total oracle questions
};

/// The full stage-3 loop: localize, then try single-variable partition flips
/// on the core/related propositions (paper V-B bullet 2), every question
/// asked of `oracle`; the outcome is consistent only through a flip.
/// Candidates are ranked by how often they occur in the core and related
/// requirements. When no flip helps and max_correction_sets > 0, the
/// outcome's localization additionally carries the minimal correction sets.
/// `checks` counts oracle questions. Precondition: localize's, under
/// `initial`.
[[nodiscard]] RefinementOutcome refine(diag::RealizabilityOracle& oracle,
                                       const partition::Partition& initial,
                                       const LocalizeOptions& localize_options = {});

/// refine() with an oracle of its own over `requirements`, answered by
/// synth::synthesize under `options`.
[[nodiscard]] RefinementOutcome refine(const std::vector<ltl::Formula>& requirements,
                                       const partition::Partition& initial,
                                       const synth::SynthesisOptions& options = {},
                                       const LocalizeOptions& localize_options = {});

/// What stage 3 of core::Pipeline::run decides for an unrealizable
/// specification -- the one artifact of that stage the cache memoizes.
struct StageThree {
  /// Present when refinement ran.
  std::optional<RefinementOutcome> refinement;
  /// Indices of the requirements unsatisfiable on their own, ascending.
  std::vector<std::size_t> unsatisfiable;
};

/// Stage 3 over one oracle of its own: refine() when `refine_first`, then
/// the satisfiability screen, which asks only the requirements no
/// realizable component already proved satisfiable. Precondition when
/// `refine_first`: localize's, under `initial`.
[[nodiscard]] StageThree stage_three(const std::vector<ltl::Formula>& requirements,
                                     const partition::Partition& initial,
                                     const synth::SynthesisOptions& options,
                                     const LocalizeOptions& localize_options,
                                     bool refine_first);

}  // namespace speccc::refine
