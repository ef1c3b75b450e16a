// Symbolic generalized-Buechi games over deterministic transition functions.
//
// This is the engine room of the scalable consistency check: a translated
// specification compiles to a conjunction of small deterministic monitors
// (see synth::compile_monitors). Their composition is a game
//
//   state s  --(env picks inputs i, system picks outputs o)-->  s' = f(s,i,o)
//
// where the system must (a) never violate the stepwise safety constraint
// safe(s,i,o) and (b) visit every Buechi predicate F_j infinitely often.
// Everything is represented with BDDs, so 20-30 I/O variables (Table I
// scale) are unproblematic.
//
// Winning region: the standard fixpoint
//   W = nu Z . AND_j  mu Y . CPre((F_j and Z-invariant) or Y)
// with CPre(T) = forall i exists o: safe(s,i,o) and T(f(s,i,o)).
// Generalized-Buechi games are determined: if the initial state is not in W,
// the environment wins, i.e. the specification is unrealizable.
#pragma once

#include <functional>
#include <vector>

#include "bdd/bdd.hpp"

namespace speccc::game {

struct SymbolicGame {
  bdd::Manager* manager = nullptr;
  std::vector<int> input_vars;
  std::vector<int> output_vars;
  std::vector<int> state_vars;
  /// Transition function per state variable (same order as state_vars),
  /// over (state, input, output) variables.
  std::vector<bdd::Bdd> next_state;
  /// Stepwise safety constraint over (state, input, output).
  bdd::Bdd safe;
  /// Buechi predicates over state variables; may be empty (pure safety).
  std::vector<bdd::Bdd> buchi;
  /// Initial state predicate (a single minterm over state_vars).
  bdd::Bdd initial;
};

struct SymbolicSolution {
  bool realizable = false;
  /// Winning region over state variables.
  bdd::Bdd winning;
  /// For each Buechi index j, the mu-stages Y_j^0 subset Y_j^1 subset ...
  /// computed in the final nu-iteration; used for strategy extraction.
  std::vector<std::vector<bdd::Bdd>> stages;
  /// Number of nu-iterations until the fixpoint stabilized (diagnostics).
  int iterations = 0;
};

/// Solve the game. The returned solution holds all BDDs needed for strategy
/// extraction (synth::synthesize). `cancelled` is polled once per
/// fixpoint round (outer nu and inner mu); returning true raises
/// util::CancelledError (a batch budget or serve deadline stops the solve
/// here).
[[nodiscard]] SymbolicSolution solve(
    const SymbolicGame& game, const std::function<bool()>& cancelled = {});

/// Controllable predecessor of a state-set T: states where, whatever inputs
/// the environment picks, the system has outputs keeping the step safe and
/// moving into T. Computed as one fused relational-product pass
/// (bdd::Manager::preimage) followed by a single input quantification --
/// the uncontrollable-predecessor complement is an O(1) edge flip away.
[[nodiscard]] bdd::Bdd cpre(const SymbolicGame& game, bdd::Bdd target);

/// T with state variables substituted by the transition functions:
/// T(f(s,i,o)) over (state, input, output).
[[nodiscard]] bdd::Bdd apply_transition(const SymbolicGame& game, bdd::Bdd target);

}  // namespace speccc::game
