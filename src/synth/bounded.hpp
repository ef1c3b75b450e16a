// Bounded LTL synthesis via universal co-Buechi automata and safety games
// (Schewe & Finkbeiner; Filiot, Jin & Raskin) -- the full-LTL engine behind
// the consistency check of paper Section V-A.
//
// Realizability of phi for a Mealy system: build the UCW of phi (the NBW of
// !phi read universally), annotate runs with counters bounded by k, and
// solve the resulting safety game (environment moves first with an input
// letter, system answers with an output letter; the system loses when some
// counter overflows). If the system wins, a finite-state controller exists
// and phi is realizable.
//
// Unrealizability: the determinacy argument -- phi is Mealy-unrealizable for
// the system iff !phi is Moore-realizable for the environment -- yields the
// dual game: the environment commits to an input letter first, the system
// answers adversarially, counters run over the UCW of !phi. Escalating k on
// both games in lockstep gives a complete procedure in the limit; a verdict
// may remain unknown at the configured bound.
//
// This engine enumerates the alphabet explicitly and is intended for small
// signatures (tests, per-requirement analysis, the paper's footnote
// example); Table I-scale specifications take the symbolic monitor engine.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "ltl/formula.hpp"
#include "synth/mealy.hpp"

namespace speccc::synth {

struct BoundedOptions {
  int max_k = 8;              // counter bound escalation limit
  bool extract = true;        // build the Mealy controller on success
  std::size_t max_alphabet_bits = 14;  // |inputs| + |outputs| hard cap
  /// Abort a game whose arena outgrows this many positions. An aborted
  /// primal game cannot prove realizability (and vice versa), so exceeding
  /// the cap degrades the verdict to kUnknown instead of grinding; SIZE_MAX
  /// (the default) never aborts. The differential harness relies on this to
  /// keep pathological X-chain specifications time-bounded.
  std::size_t max_game_positions = SIZE_MAX;
  /// Give up (kUnknown, aborted) when either UCW exceeds this many states
  /// before any game is played: a big UCW makes every counter game blow
  /// past max_game_positions anyway, so playing them only burns time.
  std::size_t max_ucw_states = SIZE_MAX;
  /// Cooperative cancellation, polled in the UCW construction, the game
  /// frontier, and the k-escalation loop; returning true raises
  /// util::CancelledError. Null is never cancelled. Last member on
  /// purpose: existing designated initializers stay valid.
  std::function<bool()> cancelled;
};

struct BoundedOutcome {
  Realizability verdict = Realizability::kUnknown;
  int k_used = -1;                      // bound at which the verdict fired
  std::size_t game_positions = 0;       // peak arena size
  std::size_t ucw_states = 0;
  /// True when some game hit max_game_positions (verdict left kUnknown
  /// unless the other game still decided it).
  bool aborted = false;
  std::optional<MealyMachine> controller;  // primal winner only
};

/// Decide realizability of `spec` (a single formula; conjoin requirements
/// before calling) for a Mealy system with the given signature.
/// Throws InvalidInputError when the signature exceeds max_alphabet_bits or
/// the formula mentions propositions outside the signature.
[[nodiscard]] BoundedOutcome bounded_synthesize(ltl::Formula spec,
                                                const IoSignature& signature,
                                                const BoundedOptions& options = {});

}  // namespace speccc::synth
