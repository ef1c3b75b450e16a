// Compilation of pattern-fragment specifications into symbolic games.
//
// Every formula the translator emits (Section IV templates) decomposes into
// pattern instances (ltl::decompose_patterns), and each instance compiles
// into a small deterministic monitor:
//
//   kInvariant      G p               stepwise safety, no state
//   kImplication    G (g -> X^n c)    n-bit guard history register
//   kGuardDelayed   G (X^n g -> c)    n-bit consequent history register
//   kResponse       G (g -> F c)      1 obligation bit + Buechi predicate
//   kWeakUntil      G (g -> (p W q))  1 obligation bit, stepwise safety
//   kStrongUntil    G (g -> (p U q))  weak-until monitor + response monitor
//   kExistence      F p               1 latch bit + Buechi predicate
//   kLookahead      G l               history registers (see below)
//
// An instance whose fields are lookahead formulas (X^k a inside) of depth
// L is monitored L steps late: history registers hold the last L values of
// its propositions, and the monitor of its kind runs on that delayed word.
// An until whose hold is itself temporal (G (g -> ((F c) W q))) binds the
// hold's own monitors to the steps where the until is pending.
//
// The conjunction of all monitors forms one game::SymbolicGame whose system
// player wins iff the specification is realizable (consistent).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "game/symbolic.hpp"
#include "ltl/formula.hpp"
#include "ltl/patterns.hpp"
#include "synth/mealy.hpp"

namespace speccc::synth {

/// The compiled game plus the bookkeeping needed for strategy extraction.
struct CompiledSpec {
  game::SymbolicGame game;
  /// Proposition name -> BDD variable index (inputs and outputs).
  std::unordered_map<std::string, int> prop_var;
  /// Initial values of the state bits (same order as game.state_vars).
  std::vector<bool> initial_bits;
  /// Which source requirement each Buechi predicate came from.
  std::vector<std::size_t> buchi_origin;
};

/// Compile a specification (conjunction of pattern instances) into a
/// symbolic game over a caller-provided manager. Throws InternalError,
/// naming the formula, when some formula falls outside the fragment or
/// mentions a proposition missing from the signature.
[[nodiscard]] CompiledSpec compile_monitors(bdd::Manager& manager,
                                            const std::vector<ltl::Formula>& spec,
                                            const IoSignature& signature);

}  // namespace speccc::synth
