// Cross-check properties: the product engine against the reference oracles.
//
// The product decides every realizability question with the symbolic
// engine (BDD fixpoints over pattern monitors). Three independent
// reference engines check it here and nowhere else: the GPVW tableau
// decides LTL satisfiability, bounded synthesis decides realizability by
// explicit safety games, and synth/verify model-checks controllers. The
// oracle pits them against each other and against the textbook lasso
// semantics of ltl/trace.hpp:
//
//   check_formula(f):
//     * a satisfiability witness for f (and for !f) must satisfy the
//       formula under trace evaluation;
//     * f and !f cannot both be unsatisfiable;
//     * for random lassos L: evaluate(f, L) != evaluate(!f, L), a lasso
//       satisfying f refutes "f unsatisfiable", and a lasso refuting f
//       refutes "f valid".
//
//   check_spec(spec, signature):
//     * the symbolic verdict on the whole spec must equal the conjunction
//       of its output-connected components' verdicts
//       (diag::RealizabilityOracle, which answers every stage-3 question);
//     * bounded and symbolic synthesis must not return opposite definite
//       realizability verdicts (kUnknown never counts as disagreement;
//       past bounded's alphabet cap it abstains and no controller is
//       extracted);
//     * every extracted Mealy controller must model-check (synth/verify)
//       against the conjoined specification and each requirement;
//     * controllers replayed on random input lassos must produce traces
//       satisfying every requirement under trace evaluation.
//
// The trace evaluator is injectable so tests can plant a broken evaluator
// and watch the harness catch and shrink it.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "difftest/random.hpp"
#include "ltl/formula.hpp"
#include "ltl/trace.hpp"
#include "synth/bounded.hpp"
#include "synth/mealy.hpp"
#include "translate/translator.hpp"

namespace speccc::difftest {

/// Trace-evaluation substrate. Null means ltl::evaluate.
using Evaluator = std::function<bool(ltl::Formula, const ltl::Lasso&)>;

struct OracleOptions {
  /// Random lassos evaluated per formula (tableau vs. trace cross-check).
  int lassos_per_formula = 4;
  /// Give up on a formula case when its tableau exceeds this many nodes:
  /// GPVW is exponential, and a rare adversarial draw (deeply nested W/R)
  /// must not stall the whole run. Skips are counted, never silent.
  std::size_t max_tableau_nodes = 2'000;
  LassoConfig lasso;
  /// Random input replays per extracted controller.
  int replays_per_controller = 2;
  /// Exhaustive model checking (synth/verify) of a controller is an
  /// explicit product construction; controllers above this state count
  /// are checked by random replay only (monitor compositions can reach
  /// tens of thousands of states, where the product no longer terminates
  /// in reasonable time).
  std::size_t max_verify_states = 1'000;
  /// The k and arena caps keep pathological X-chain conjunctions
  /// time-bounded: the bounded engine degrades to kUnknown (never counted
  /// as a disagreement) instead of exploring millions of counter
  /// positions. Generated realizable specs decide at k <= 2 in practice.
  synth::BoundedOptions bounded = {.max_k = 4,
                                   .max_game_positions = 20'000,
                                   .max_ucw_states = 150,
                                   .cancelled = {}};
  Evaluator evaluate;  // test injection point; defaults to ltl::evaluate
};

/// Cross-check one formula. Returns a description of the first violated
/// property, or nullopt when every property holds. Deterministic given the
/// rng state. When the tableau of f or !f exceeds max_tableau_nodes the
/// case is skipped (nullopt) and *skipped, if given, is set.
[[nodiscard]] std::optional<std::string> check_formula(
    ltl::Formula f, util::Rng& rng, const OracleOptions& options = {},
    bool* skipped = nullptr);

/// A realizability test case: requirement formulas plus the input/output
/// signature both synthesis engines must agree on.
struct SpecCase {
  std::vector<ltl::Formula> requirements;
  synth::IoSignature signature;
};

/// Stage-1 pipeline over generated requirement sentences: translate with
/// the builtin lexicon/dictionary, abstract timing constants (so "in 120
/// seconds" does not bury the bounded engine in Next chains), and derive
/// the input/output partition.
[[nodiscard]] SpecCase build_spec_case(
    const std::vector<translate::RequirementText>& texts);

/// What bounded synthesis contributed to a spec check: past its alphabet
/// cap it abstains; inside it, a definite verdict (the only outcome that
/// cross-checks the symbolic verdict) or kUnknown at the oracle's caps.
enum class BoundedCoverage { kAbstained, kDefinite, kUnknown };

/// Cross-check one specification across both synthesis engines. Returns a
/// description of the first violated property, or nullopt. The symbolic
/// engine only sees specs inside the pattern fragment (a shrunk spec may
/// leave it). `coverage`, if given, receives the bounded engine's outcome.
[[nodiscard]] std::optional<std::string> check_spec(
    const SpecCase& spec, util::Rng& rng, const OracleOptions& options = {},
    BoundedCoverage* coverage = nullptr);

}  // namespace speccc::difftest
