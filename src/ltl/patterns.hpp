// Property patterns (Dwyer et al. [6], Salamah et al. [19]) and the
// fragment the symbolic synthesis engine compiles into deterministic
// monitors.
//
// The paper's translator emits the Universality and Existence patterns plus
// the implication/response/until shapes that the structured-English
// subordinators induce. Two readers turn a formula into pattern instances:
// recognize_pattern takes one of those shapes whole; decompose_patterns
// falls back to reading G of a CNF clause by clause.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "ltl/formula.hpp"

namespace speccc::ltl {

enum class PatternKind {
  kInvariant,        // G p                      (safety)
  kImplication,      // G (g -> X^n c)           (safety; n >= 0)
  kGuardDelayed,     // G (X^n g -> c)           (safety; n >= 1)
  kResponse,         // G (g -> F c)             (liveness)
  kWeakUntil,        // G (g -> (p W q))         (safety)
  kStrongUntil,      // G (g -> (p U q))         (safety + liveness)
  kExistence,        // F p                      (liveness)
  kLookahead,        // G p, p a lookahead formula (safety)
  kAlwaysOneOf,      // G (g -> G h1 || ... || G hk [|| (p W q)]) (safety)
};

/// A pattern instance. recognize_pattern returns propositional fields only.
/// decompose_patterns may also return lookahead formulas -- Boolean
/// combinations of X^k a, see lookahead_depth -- as the body of
/// kLookahead, the guard and consequent of kResponse, and the guard, hold
/// and release of the until kinds; an until hold may also be any formula h
/// for which decompose_patterns(G h) succeeds (G (g -> ((F c) W q))).
struct PatternInstance {
  PatternKind kind;
  Formula guard;       // kInvariant/kExistence/kLookahead: the body;
                       // otherwise the trigger
  Formula consequent;  // kImplication: c; kResponse: c; kUntil: the hold part p;
                       // kAlwaysOneOf: G h1 || ... || G hk [|| (p W q)]
  Formula release;     // kUntil kinds only: q
  std::size_t delay = 0;  // kImplication, kGuardDelayed: n
};

/// The largest number of X operators on a path to an atom of `f` when f is
/// a lookahead formula (atoms, Boolean connectives and X only), else
/// std::nullopt. A propositional formula has depth 0.
[[nodiscard]] std::optional<std::size_t> lookahead_depth(Formula f);

/// Try to recognize `f` as one of the monitorable patterns. Nested
/// implications in the consequent are normalized into the guard
/// (g1 -> (g2 -> c) becomes (g1 && g2) -> c). Returns std::nullopt when the
/// formula is not a single pattern instance; decompose_patterns below
/// reads the coordinated shapes the translator also emits.
[[nodiscard]] std::optional<PatternInstance> recognize_pattern(Formula f);

/// Decompose `f` into pattern instances whose conjunction is equivalent to
/// it: recognize_pattern's one instance when it takes f whole, else f read
/// as G of a CNF whose clauses mix lookahead literals with F c, G h and one
/// p W q; each clause is one instance, l the disjunction of its lookahead
/// literals --
///   G (l || F c)             == G (!l -> F c)                   kResponse
///   G (l || G h)             == G (!l -> (h W false))           kWeakUntil
///   G (l || G h1 || ... || G hk)  (k >= 2)                    kAlwaysOneOf
///   G (l || G h1 || ... || G hk || (p W q))  (p, q lookahead)  kAlwaysOneOf
///   G (l || (p W q))         == G (!l -> (p W q))               kWeakUntil
///   G l                                                        kLookahead
/// after F c || G h == (h || F c) W c, F c || (p W q) == (p || F c) W
/// (q || c), and, per G literal beside an until with a temporal hold,
/// G h || (p W q) == ((p || G h) W q) && ((h || (p W q)) W q). So
/// coordinated clauses, eventually in a condition (G (F d -> r) ==
/// G (!r -> G !d)), future tense under until and deadlines anywhere are in
/// the fragment. Returns std::nullopt when some part falls outside it.
/// This is the fragment the translator admits and the symbolic engine
/// compiles.
[[nodiscard]] std::optional<std::vector<PatternInstance>> decompose_patterns(
    Formula f);

}  // namespace speccc::ltl
