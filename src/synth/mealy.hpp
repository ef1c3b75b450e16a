// Mealy machines: the controllers produced by synthesis (paper Fig. 1's
// final artifact) and the witnesses of specification consistency.
//
// Inputs and outputs are bit-vectors over the proposition lists in the
// machine's signature, encoded as masks (bit b = proposition index b).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ltl/trace.hpp"

namespace speccc::synth {

/// Input/output proposition signature shared by all synthesis engines.
struct IoSignature {
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
};

/// A realizability verdict, shared by all synthesis engines. kUnknown is
/// an abstention (a bounded engine past its caps), never a verdict.
enum class Realizability { kRealizable, kUnrealizable, kUnknown };

using Word = std::uint32_t;  // valuation mask over a proposition list

/// Deterministic Mealy machine: transition(state, input) = (output, next).
class MealyMachine {
 public:
  MealyMachine() = default;
  explicit MealyMachine(IoSignature signature)
      : signature_(std::move(signature)) {}

  [[nodiscard]] const IoSignature& signature() const { return signature_; }
  [[nodiscard]] std::size_t num_states() const { return next_.size(); }
  [[nodiscard]] int initial() const { return 0; }

  /// Append a state; returns its index. Transitions default to unset.
  int add_state();

  void set_transition(int state, Word input, Word output, int next);
  [[nodiscard]] bool has_transition(int state, Word input) const;
  /// All transitions out of `state`, keyed by input word (ordered map, so
  /// iteration is deterministic). The cache snapshot serializer walks this
  /// to persist synthesized controllers byte-stably.
  [[nodiscard]] const std::map<Word, std::pair<Word, int>>& transitions(
      int state) const {
    return next_[static_cast<std::size_t>(state)];
  }
  [[nodiscard]] Word output(int state, Word input) const;
  [[nodiscard]] int next(int state, Word input) const;

  /// Run the machine on an input sequence; returns the produced combined
  /// valuations (inputs + outputs per step).
  [[nodiscard]] std::vector<ltl::Valuation> run(const std::vector<Word>& inputs) const;

  /// Drive the machine with a looping input word until the joint
  /// (machine state, input position) configuration repeats, producing an
  /// ultimately periodic combined trace. This is how tests check that a
  /// synthesized controller actually satisfies the specification: the
  /// returned lasso feeds ltl::evaluate.
  [[nodiscard]] ltl::Lasso lasso(const std::vector<Word>& input_prefix,
                                 const std::vector<Word>& input_loop) const;

  /// Valuation of a combined step from masks.
  [[nodiscard]] ltl::Valuation valuation(Word input, Word output) const;

 private:
  IoSignature signature_;
  std::vector<std::map<Word, std::pair<Word, int>>> next_;
};

}  // namespace speccc::synth
