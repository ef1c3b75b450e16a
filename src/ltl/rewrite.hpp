// Formula rewriting: negation normal form (the GPVW tableau's input) and
// the Next-chain query of time abstraction.
#pragma once

#include <cstddef>

#include "ltl/formula.hpp"

namespace speccc::ltl {

/// Negation normal form: negations pushed to the atoms, -> and <-> expanded.
/// Uses the dualities !X f == X !f, !(a U b) == !a R !b, !(a R b) == !a U !b,
/// !(a W b) == (a && !b) U (!a && !b), !F f == G !f, !G f == F !f.
[[nodiscard]] Formula nnf(Formula f);

/// The number of X operators in the longest chain of directly nested Next
/// operators anywhere in the formula (0 when no Next occurs). Section IV-E's
/// abstraction works on these chain lengths.
[[nodiscard]] std::size_t max_next_chain(Formula f);

}  // namespace speccc::ltl
