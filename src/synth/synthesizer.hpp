// Top-level synthesis driver: the SpecCC stand-in for G4LTL (Section V-A).
//
// Given translated requirements and an input/output partition, decides
// realizability -- the paper's notion of specification consistency -- and
// optionally extracts a Mealy controller witnessing it.
//
// One engine decides every question, exact on the pattern fragment: each
// requirement decomposes into pattern instances (ltl::decompose_patterns),
// each instance compiles to a deterministic monitor (synth/monitors.hpp),
// the monitors compose into one BDD game, and the generalized-Buechi
// fixpoint of game/symbolic.hpp decides it (such games are determined, so
// "system loses" == "specification unrealizable"). Every formula the
// Section IV translator emits is in the fragment (pipeline_test's
// FragmentInvariant pins this), so a formula outside it is a caller bug,
// not an input the product answers. The bounded engine, the GPVW tableau
// and controller verification are reference oracles of the difftest
// harness (speccc::difftest), not product paths.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "bdd/bdd.hpp"
#include "ltl/formula.hpp"
#include "synth/mealy.hpp"

namespace speccc::synth {

struct SynthesisOptions {
  bool extract = false;  // build a Mealy controller (enumerates inputs!)
  std::size_t max_extract_inputs = 12;  // extraction cap on |inputs|
  /// Cooperative cancellation, polled once per game fixpoint round;
  /// returning true raises util::CancelledError. Null is never cancelled.
  std::function<bool()> cancelled;
};

struct SynthesisResult {
  Realizability verdict = Realizability::kUnknown;
  /// Engine statistics.
  std::size_t state_bits = 0;        // monitor state bits
  bdd::Stats bdd_stats;              // manager counters
  int iterations = 0;                // fixpoint rounds
  std::optional<MealyMachine> controller;

  [[nodiscard]] bool realizable() const {
    return verdict == Realizability::kRealizable;
  }
};

/// Decide realizability of the conjunction of `requirements`. Throws
/// InvalidInputError on an empty specification and InternalError when some
/// requirement is outside the pattern fragment or mentions a proposition
/// missing from the signature (the caller must pass translator output
/// under its partition). Throws util::CancelledError when
/// options.cancelled fires.
[[nodiscard]] SynthesisResult synthesize(const std::vector<ltl::Formula>& requirements,
                                         const IoSignature& signature,
                                         const SynthesisOptions& options = {});

}  // namespace speccc::synth
