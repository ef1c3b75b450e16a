// The scalable realizability engine: pattern monitors + symbolic
// generalized-Buechi games.
//
// This is the configuration that checks Table I's specifications (20-30 I/O
// variables): every translated requirement compiles to a deterministic
// monitor (synth/monitors.hpp), the monitors compose into one BDD game, and
// the fixpoint of game/symbolic.hpp decides the winner exactly (generalized
// Buechi games are determined, so "system loses" == "specification
// unrealizable" with no bound escalation needed).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "bdd/bdd.hpp"
#include "ltl/formula.hpp"
#include "synth/mealy.hpp"

namespace speccc::synth {

struct SymbolicOptions {
  bool extract = false;  // build a Mealy controller (enumerates inputs!)
  std::size_t max_extract_inputs = 12;  // extraction cap on |inputs|
  /// Cooperative cancellation, polled once per game fixpoint round;
  /// returning true raises util::CancelledError. Null is never cancelled.
  std::function<bool()> cancelled;
};

struct SymbolicOutcome {
  Realizability verdict = Realizability::kUnknown;
  std::size_t state_bits = 0;
  std::size_t buchi_count = 0;
  std::size_t peak_bdd_nodes = 0;
  int fixpoint_iterations = 0;
  /// Engine counters of the run's (per-call, single-threaded) manager:
  /// arena peak, unique-table hits, computed-cache hits/misses/evictions.
  bdd::Stats bdd_stats;
  std::optional<MealyMachine> controller;
};

/// Decide realizability of the conjunction of `spec` with the symbolic
/// engine. Returns nullopt when some formula is outside the monitorable
/// fragment or mentions a proposition missing from the signature.
[[nodiscard]] std::optional<SymbolicOutcome> symbolic_synthesize(
    const std::vector<ltl::Formula>& spec, const IoSignature& signature,
    const SymbolicOptions& options = {});

}  // namespace speccc::synth
