// Top-level synthesis driver: the SpecCC stand-in for G4LTL (Section V-A).
//
// Given translated requirements and an input/output partition, decides
// realizability -- the paper's notion of specification consistency -- and
// optionally extracts a Mealy controller witnessing it.
//
// One engine decides every question: the symbolic monitor-composition game
// (synth/symbolic_engine.hpp), exact on the monitorable pattern fragment.
// Every formula the Section IV translator emits is a pattern instance
// (pipeline_test's FragmentInvariant pins this), so a formula outside the
// fragment is a caller bug, not an input the product answers. The bounded
// engine, the GPVW tableau and controller verification are reference
// oracles of the difftest harness (speccc::difftest), not product paths.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "ltl/formula.hpp"
#include "synth/mealy.hpp"
#include "synth/symbolic_engine.hpp"

namespace speccc::synth {

struct SynthesisOptions {
  SymbolicOptions symbolic;
};

struct SynthesisResult {
  Realizability verdict = Realizability::kUnknown;
  /// Engine statistics.
  std::size_t state_bits = 0;        // monitor state bits
  std::size_t peak_bdd_nodes = 0;
  bdd::Stats bdd_stats;              // manager counters
  int iterations = 0;                // fixpoint rounds
  std::optional<MealyMachine> controller;

  [[nodiscard]] bool realizable() const {
    return verdict == Realizability::kRealizable;
  }
};

/// A realizability question: the verdict on the conjunction of `formulas`
/// under `signature`. Stage 3 (refine, diag::synthesis_oracle) asks one.
using Decide = std::function<Realizability(const std::vector<ltl::Formula>&,
                                           const IoSignature&)>;

/// Decide realizability of the conjunction of `requirements` with the
/// symbolic engine. Throws InvalidInputError on an empty specification and
/// InternalError when some requirement is outside the pattern fragment or
/// mentions a proposition missing from the signature (the caller must pass
/// translator output under its partition). Throws util::CancelledError
/// when options.symbolic.cancelled fires.
[[nodiscard]] SynthesisResult synthesize(const std::vector<ltl::Formula>& requirements,
                                         const IoSignature& signature,
                                         const SynthesisOptions& options = {});

}  // namespace speccc::synth
