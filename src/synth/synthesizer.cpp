#include "synth/synthesizer.hpp"

#include <map>
#include <vector>

#include "game/symbolic.hpp"
#include "synth/monitors.hpp"
#include "util/diagnostics.hpp"

namespace speccc::synth {

namespace {

using game::SymbolicSolution;

/// Strategy extraction for the generalized-Buechi game: machine states are
/// (monitor state bits, pursuit index). Pursuing Buechi set j, the system
/// descends the mu-stages of j; on reaching stage 0 (an F_j state from which
/// the winning region is controllable) it advances to the next set.
class Extractor {
 public:
  Extractor(const CompiledSpec& spec, const SymbolicSolution& solution,
            const IoSignature& signature)
      : spec_(spec),
        solution_(solution),
        mgr_(*spec.game.manager),
        signature_(signature) {
    // Precompute safe ∧ T∘f for each needed target set.
    win_step_ = step_into(solution_.winning);
    stage_steps_.resize(solution_.stages.size());
    for (std::size_t j = 0; j < solution_.stages.size(); ++j) {
      for (const bdd::Bdd& stage : solution_.stages[j]) {
        stage_steps_[j].push_back(step_into(stage));
      }
    }
  }

  MealyMachine run() {
    MealyMachine machine(signature_);
    std::map<std::pair<std::vector<bool>, std::size_t>, int> ids;
    std::vector<std::pair<std::vector<bool>, std::size_t>> work;

    const auto state_of = [&](const std::vector<bool>& bits, std::size_t j) {
      const auto key = std::make_pair(bits, j);
      const auto it = ids.find(key);
      if (it != ids.end()) return it->second;
      const int s = machine.add_state();
      ids.emplace(key, s);
      work.push_back(key);
      return s;
    };

    (void)state_of(spec_.initial_bits, 0);
    const std::size_t n_inputs = signature_.inputs.size();
    const std::size_t m = solution_.stages.size();

    while (!work.empty()) {
      const auto [bits, j] = work.back();
      work.pop_back();
      const int s = ids.at({bits, j});
      for (Word in = 0; in < (Word{1} << n_inputs); ++in) {
        // Decide which target to pursue from this configuration.
        std::size_t nj = j;
        bdd::Bdd step = win_step_;
        if (m > 0) {
          const std::size_t r = min_stage(bits, j);
          if (r == 0) {
            nj = (j + 1) % m;
            step = win_step_;
          } else {
            step = stage_steps_[j][r - 1];
          }
        }
        const auto [out, next_bits] = choose(bits, in, step);
        machine.set_transition(s, in, out, state_of(next_bits, nj));
      }
    }
    return machine;
  }

 private:
  bdd::Bdd step_into(bdd::Bdd target) {
    return mgr_.bdd_and(spec_.game.safe,
                        game::apply_transition(spec_.game, target));
  }

  /// Smallest mu-stage of Buechi set j containing the state.
  std::size_t min_stage(const std::vector<bool>& bits, std::size_t j) const {
    const auto& stages = solution_.stages[j];
    for (std::size_t r = 0; r < stages.size(); ++r) {
      if (contains(stages[r], bits)) return r;
    }
    speccc_check(false, "winning state must lie in some stage");
    return 0;
  }

  bool contains(bdd::Bdd set, const std::vector<bool>& bits) const {
    // Evaluate over state vars only; input/output vars are absent from the
    // stage sets.
    std::vector<bool> assignment(static_cast<std::size_t>(mgr_.num_vars()), false);
    for (std::size_t b = 0; b < spec_.game.state_vars.size(); ++b) {
      assignment[static_cast<std::size_t>(spec_.game.state_vars[b])] = bits[b];
    }
    return const_cast<bdd::Manager&>(mgr_).evaluate(set, assignment);
  }

  /// Pick an output satisfying `step` for the given state and input; return
  /// (output mask, next state bits).
  std::pair<Word, std::vector<bool>> choose(const std::vector<bool>& bits,
                                            Word in, bdd::Bdd step) {
    // One constrained pick_model pass instead of |state|+|input|
    // successive conjunctions: fix the configuration, read any output
    // model consistent with it straight off the step relation.
    std::vector<std::pair<int, bool>> fixed;
    fixed.reserve(spec_.game.state_vars.size() + spec_.game.input_vars.size());
    for (std::size_t b = 0; b < spec_.game.state_vars.size(); ++b) {
      fixed.emplace_back(spec_.game.state_vars[b], bits[b]);
    }
    for (std::size_t b = 0; b < spec_.game.input_vars.size(); ++b) {
      fixed.emplace_back(spec_.game.input_vars[b], ((in >> b) & 1) != 0);
    }
    const auto model = mgr_.pick_model(step, fixed);
    speccc_check(!model.empty() || step.is_true(),
                 "no safe output from a winning configuration");

    std::vector<bool> assignment(static_cast<std::size_t>(mgr_.num_vars()), false);
    for (std::size_t b = 0; b < spec_.game.state_vars.size(); ++b) {
      assignment[static_cast<std::size_t>(spec_.game.state_vars[b])] = bits[b];
    }
    for (std::size_t b = 0; b < spec_.game.input_vars.size(); ++b) {
      assignment[static_cast<std::size_t>(spec_.game.input_vars[b])] =
          ((in >> b) & 1) != 0;
    }
    for (const auto& [v, value] : model) assignment[static_cast<std::size_t>(v)] = value;

    Word out = 0;
    for (std::size_t b = 0; b < spec_.game.output_vars.size(); ++b) {
      if (assignment[static_cast<std::size_t>(spec_.game.output_vars[b])]) {
        out |= Word{1} << b;
      }
    }
    std::vector<bool> next_bits(spec_.game.state_vars.size());
    for (std::size_t b = 0; b < spec_.game.state_vars.size(); ++b) {
      next_bits[b] = mgr_.evaluate(spec_.game.next_state[b], assignment);
    }
    return {out, next_bits};
  }

  const CompiledSpec& spec_;
  const SymbolicSolution& solution_;
  bdd::Manager& mgr_;
  const IoSignature& signature_;
  bdd::Bdd win_step_;
  std::vector<std::vector<bdd::Bdd>> stage_steps_;
};

}  // namespace

SynthesisResult synthesize(const std::vector<ltl::Formula>& requirements,
                           const IoSignature& signature,
                           const SynthesisOptions& options) {
  if (requirements.empty()) {
    throw util::InvalidInputError(
        "cannot synthesize from an empty specification");
  }
  bdd::Manager manager;
  const CompiledSpec compiled = compile_monitors(manager, requirements, signature);
  const SymbolicSolution solution = game::solve(compiled.game, options.cancelled);

  SynthesisResult result;
  result.verdict = solution.realizable ? Realizability::kRealizable
                                       : Realizability::kUnrealizable;
  result.state_bits = compiled.game.state_vars.size();
  result.iterations = solution.iterations;
  if (solution.realizable && options.extract &&
      signature.inputs.size() <= options.max_extract_inputs) {
    result.controller = Extractor(compiled, solution, signature).run();
  }
  // Read the counters last so extraction work is included.
  result.bdd_stats = manager.stats();
  return result;
}

}  // namespace speccc::synth
