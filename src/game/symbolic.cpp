#include "game/symbolic.hpp"

#include "util/diagnostics.hpp"

namespace speccc::game {

namespace {

/// Transition substitution: state variable b -> next_state[b], every other
/// variable identity. The manager interns the resolved map, so rebuilding
/// this vector every call still keys one persistent cache entry.
std::vector<bdd::Bdd> transition_map(const SymbolicGame& game) {
  bdd::Manager& mgr = *game.manager;
  std::vector<bdd::Bdd> map(static_cast<std::size_t>(mgr.num_vars()));
  for (std::size_t b = 0; b < game.state_vars.size(); ++b) {
    map[static_cast<std::size_t>(game.state_vars[b])] = game.next_state[b];
  }
  return map;
}

}  // namespace

bdd::Bdd apply_transition(const SymbolicGame& game, bdd::Bdd target) {
  return game.manager->vector_compose(target, transition_map(game));
}

bdd::Bdd cpre(const SymbolicGame& game, bdd::Bdd target) {
  bdd::Manager& mgr = *game.manager;
  // One fused pass: substitute the transition functions into the target and
  // run the relational product exists o. (safe && T∘f) without ever
  // building the intermediate conjunction. The trailing forall over inputs
  // costs one quantification pass; its two negations are O(1) complement
  // flips. The textbook formulation (compose, and, exists, not, exists,
  // not) did three full traversals plus two linear negation passes here.
  const bdd::Bdd sys_can =
      mgr.preimage(target, transition_map(game), game.safe, game.output_vars);
  return mgr.forall(sys_can, game.input_vars);
}

SymbolicSolution solve(const SymbolicGame& game,
                       const std::function<bool()>& cancelled) {
  speccc_check(game.manager != nullptr, "game needs a manager");
  speccc_check(game.next_state.size() == game.state_vars.size(),
               "one transition function per state variable");
  bdd::Manager& mgr = *game.manager;
  const auto poll = [&cancelled]() {
    if (cancelled && cancelled()) {
      throw util::CancelledError("symbolic game solve cancelled");
    }
  };

  // The initial predicate is one minterm over the state variables, so
  // containment in the winning region (forall s. initial -> W, a fused
  // single pass collapsing to a terminal) and non-empty intersection
  // coincide.
  const auto initial_winning = [&](bdd::Bdd winning) {
    return mgr.forall_implies(game.initial, winning, game.state_vars).is_true();
  };

  SymbolicSolution solution;
  bdd::Bdd z = mgr.bdd_true();

  // Pure safety: nu Z. CPre(Z).
  if (game.buchi.empty()) {
    for (;;) {
      poll();
      ++solution.iterations;
      const bdd::Bdd next = cpre(game, z);
      // CPre is monotone and we start at true, so the sequence decreases.
      const bdd::Bdd capped = mgr.bdd_and(z, next);
      if (capped == z) break;
      z = capped;
    }
    solution.winning = z;
    solution.stages = {};
    solution.realizable = initial_winning(z);
    return solution;
  }

  // Generalized Buechi: nu Z. AND_j mu Y. CPre((F_j and CPre(Z)) or Y).
  // We keep the final mu stages for strategy extraction.
  for (;;) {
    poll();
    ++solution.iterations;
    bdd::Bdd conj = mgr.bdd_true();
    std::vector<std::vector<bdd::Bdd>> stages;
    const bdd::Bdd cpre_z = cpre(game, z);
    for (const bdd::Bdd& f : game.buchi) {
      // mu Y. CPre((F_j and CPre(Z)) or Y): the set from which the system
      // can force a visit to F_j (while being able to continue inside Z).
      const bdd::Bdd target = mgr.bdd_and(f, cpre_z);
      std::vector<bdd::Bdd> mu_stages;
      bdd::Bdd y = mgr.bdd_false();
      for (;;) {
        poll();
        const bdd::Bdd next = mgr.bdd_or(target, cpre(game, y));
        if (next == y) break;
        mu_stages.push_back(next);
        y = next;
      }
      conj = mgr.bdd_and(conj, y);
      stages.push_back(std::move(mu_stages));
    }
    if (conj == z) {
      solution.stages = std::move(stages);
      break;
    }
    z = conj;
  }

  solution.winning = z;
  solution.realizable = initial_winning(z);
  return solution;
}

}  // namespace speccc::game
