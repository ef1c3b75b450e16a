// Buechi emptiness checking with lasso witnesses, and automata-based LTL
// satisfiability.
//
// Used three ways:
//   * the difftest oracle (an empty NBW proves a formula unsatisfiable);
//   * generating witness traces for satisfiable formulas (property tests
//     cross-check the witness against the trace semantics);
//   * the model checker in synth/verify.hpp (emptiness of a product).
#pragma once

#include <optional>

#include "automata/buchi.hpp"
#include "ltl/formula.hpp"
#include "ltl/trace.hpp"

namespace speccc::automata {

/// A lasso witness of nonemptiness, as concrete valuations (propositions not
/// constrained by the accepting run's cubes default to false).
struct Witness {
  ltl::Lasso lasso;
};

/// Is the automaton's language empty? Returns a witness when it is not.
/// Linear in the product of states and transitions (nested DFS).
[[nodiscard]] std::optional<Witness> find_accepting_lasso(const Buchi& automaton);

[[nodiscard]] inline bool is_empty(const Buchi& automaton) {
  return !find_accepting_lasso(automaton).has_value();
}

/// LTL satisfiability via the tableau: satisfiable iff the NBW of f has a
/// nonempty language. The witness satisfies f (checked in tests against
/// ltl::evaluate).
[[nodiscard]] std::optional<Witness> satisfiable_witness(ltl::Formula f);

[[nodiscard]] inline bool satisfiable(ltl::Formula f) {
  return satisfiable_witness(f).has_value();
}

/// Validity: f is valid iff !f is unsatisfiable.
[[nodiscard]] inline bool valid(ltl::Formula f) {
  return !satisfiable(ltl::lnot(f));
}

}  // namespace speccc::automata
