// Top-level synthesis driver: the SpecCC stand-in for G4LTL (Section V-A).
//
// Given translated requirements and an input/output partition, decides
// realizability -- the paper's notion of specification consistency -- and
// optionally extracts a Mealy controller witnessing it.
//
// Engine selection (synthesize): when every requirement lies in the
// monitorable pattern fragment (everything the Section IV translator
// emits), the symbolic monitor-composition engine decides the game exactly
// at Table I scale; otherwise the explicit bounded-synthesis engine
// handles full LTL on small signatures. The two engine lanes are exposed
// on their own for the substrate layer (core/substrate.hpp), which routes
// "auto", "symbolic" and "bounded" through them.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ltl/formula.hpp"
#include "synth/bounded.hpp"
#include "synth/mealy.hpp"
#include "synth/symbolic_engine.hpp"

namespace speccc::synth {

struct SynthesisOptions {
  BoundedOptions bounded;
  SymbolicOptions symbolic;
};

struct SynthesisResult {
  Realizability verdict = Realizability::kUnknown;
  /// Name of the engine or core::Substrate that produced the verdict
  /// ("tableau", "bounded", "symbolic"). Non-canonical diagnostic.
  std::string substrate_used;
  /// Engine statistics (whichever engine ran).
  std::size_t state_bits = 0;        // symbolic: monitor state bits
  std::size_t ucw_states = 0;        // bounded: UCW size
  std::size_t game_positions = 0;    // bounded: peak arena size
  std::size_t peak_bdd_nodes = 0;    // symbolic
  bdd::Stats bdd_stats;              // symbolic: manager counters
  int iterations = 0;                // fixpoint rounds / final k
  std::optional<MealyMachine> controller;

  [[nodiscard]] bool realizable() const {
    return verdict == Realizability::kRealizable;
  }
};

/// A realizability question: the verdict on the conjunction of `formulas`
/// under `signature`. Stage 3 (refine, diag::synthesis_oracle) asks one.
using Decide = std::function<Realizability(const std::vector<ltl::Formula>&,
                                           const IoSignature&)>;

/// Decide realizability of the conjunction of `requirements`: the symbolic
/// lane when it applies, else the bounded lane. Throws InvalidInputError on
/// an empty specification.
[[nodiscard]] SynthesisResult synthesize(const std::vector<ltl::Formula>& requirements,
                                         const IoSignature& signature,
                                         const SynthesisOptions& options = {});

/// The symbolic lane alone; nullopt when some requirement is outside the
/// monitorable fragment or mentions propositions missing from the signature.
[[nodiscard]] std::optional<SynthesisResult> synthesize_symbolic(
    const std::vector<ltl::Formula>& requirements, const IoSignature& signature,
    const SymbolicOptions& options);

/// The bounded lane alone, on the conjunction of `requirements`.
[[nodiscard]] SynthesisResult synthesize_bounded(
    const std::vector<ltl::Formula>& requirements, const IoSignature& signature,
    const BoundedOptions& options);

}  // namespace speccc::synth
