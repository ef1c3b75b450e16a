// Tests for the input/output partition heuristics (paper Section IV-F).
#include <gtest/gtest.h>

#include "ltl/formula.hpp"
#include "ltl/parser.hpp"
#include "partition/partition.hpp"

namespace partition = speccc::partition;
namespace ltl = speccc::ltl;

namespace {

TEST(Partition, PaperReq32Example) {
  // Section IV-F's worked example: G ((available_pulse_wave ||
  // available_arterial_line) && select_cuff -> trigger_corroboration):
  // antecedent atoms are inputs, the consequent is the output.
  const auto votes = partition::classify(
      ltl::parse("G ((available_pulse_wave || available_arterial_line) && "
                 "select_cuff -> trigger_corroboration)"));
  EXPECT_EQ(votes.inputs,
            (std::set<std::string>{"available_pulse_wave",
                                   "available_arterial_line", "select_cuff"}));
  EXPECT_EQ(votes.outputs, (std::set<std::string>{"trigger_corroboration"}));
}

TEST(Partition, BothSidesWithinOneRequirementIsOutput) {
  const auto votes = partition::classify(ltl::parse("G (busy -> X busy)"));
  EXPECT_TRUE(votes.inputs.empty());
  EXPECT_EQ(votes.outputs, (std::set<std::string>{"busy"}));
}

TEST(Partition, UntilRightHandSideIsInput) {
  // Req-49 shape: the release event of W is an input, the held proposition
  // conflicts (guard + consequent) and becomes an output.
  const auto votes = partition::classify(
      ltl::parse("G (btn -> !press -> btn W press)"));
  EXPECT_EQ(votes.inputs, (std::set<std::string>{"press"}));
  EXPECT_EQ(votes.outputs, (std::set<std::string>{"btn"}));
}

TEST(Partition, CrossRequirementConflictResolvesToOutput) {
  const std::vector<ltl::Formula> spec = {
      ltl::parse("G (a -> b)"),  // b output
      ltl::parse("G (b -> c)"),  // b input here: conflict
  };
  const auto p = partition::unify(spec);
  EXPECT_EQ(p.inputs, (std::set<std::string>{"a"}));
  EXPECT_EQ(p.outputs, (std::set<std::string>{"b", "c"}));
}

TEST(Partition, NoInputPromotesSmallestOutput) {
  const std::vector<ltl::Formula> spec = {ltl::parse("G (x && y)")};
  const auto p = partition::unify(spec);
  EXPECT_EQ(p.inputs, (std::set<std::string>{"x"}));
  EXPECT_EQ(p.outputs, (std::set<std::string>{"y"}));
}

TEST(Partition, OverridesWin) {
  partition::Overrides overrides;
  overrides.forced["b"] = true;  // force b to input
  const std::vector<ltl::Formula> spec = {
      ltl::parse("G (a -> b)"),
  };
  const auto p = partition::unify(spec, overrides);
  EXPECT_TRUE(p.is_input("b"));
  EXPECT_TRUE(p.is_input("a"));
  EXPECT_TRUE(p.outputs.empty());
}

TEST(Partition, NestedImplicationsVoteEachAntecedent) {
  const auto votes =
      partition::classify(ltl::parse("G (a -> (b -> c))"));
  EXPECT_EQ(votes.inputs, (std::set<std::string>{"a", "b"}));
  EXPECT_EQ(votes.outputs, (std::set<std::string>{"c"}));
}

TEST(Partition, NegatedConsequentStillOutput) {
  const auto votes = partition::classify(ltl::parse("G (a -> !c)"));
  EXPECT_EQ(votes.outputs, (std::set<std::string>{"c"}));
}

TEST(Partition, ResponseConsequentIsOutput) {
  const auto votes = partition::classify(ltl::parse("G (req -> F grant)"));
  EXPECT_EQ(votes.inputs, (std::set<std::string>{"req"}));
  EXPECT_EQ(votes.outputs, (std::set<std::string>{"grant"}));
}

TEST(Partition, DeepNextChainDoesNotExhaustTheStack) {
  // An abstracted deadline can leave a Next chain hundreds of thousands
  // deep ("in 3000000 seconds" beside "in 7 seconds" gives 428,571).
  const ltl::Formula deep = ltl::always(ltl::implies(
      ltl::ap("a"), ltl::next_n(ltl::ap("b"), 500000)));
  const partition::Partition p = partition::unify({deep});
  EXPECT_EQ(p.inputs, (std::set<std::string>{"a"}));
  EXPECT_EQ(p.outputs, (std::set<std::string>{"b"}));
}

}  // namespace
