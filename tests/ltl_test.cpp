// Tests for the LTL core: hash-consing, printing, parsing round-trips,
// rewriting, and lasso-trace semantics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "difftest/random.hpp"
#include "ltl/formula.hpp"
#include "ltl/parser.hpp"
#include "ltl/patterns.hpp"
#include "ltl/rewrite.hpp"
#include "ltl/trace.hpp"
#include "util/diagnostics.hpp"

namespace ltl = speccc::ltl;
using ltl::Formula;

namespace {

Formula a() { return ltl::ap("a"); }
Formula b() { return ltl::ap("b"); }
Formula c() { return ltl::ap("c"); }

TEST(Formula, HashConsingGivesPointerEquality) {
  Formula f1 = ltl::land(a(), ltl::next(b()));
  Formula f2 = ltl::land(a(), ltl::next(b()));
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(f1.hash(), f2.hash());
}

TEST(Formula, NeutralSimplifications) {
  EXPECT_EQ(ltl::lnot(ltl::lnot(a())), a());
  EXPECT_EQ(ltl::land(a(), ltl::tru()), a());
  EXPECT_EQ(ltl::land(a(), ltl::fls()), ltl::fls());
  EXPECT_EQ(ltl::lor(a(), ltl::tru()), ltl::tru());
  EXPECT_EQ(ltl::lor(a(), ltl::fls()), a());
  EXPECT_EQ(ltl::always(ltl::always(a())), ltl::always(a()));
  EXPECT_EQ(ltl::eventually(ltl::eventually(a())), ltl::eventually(a()));
}

TEST(Formula, NaryFlattening) {
  Formula f = ltl::land(ltl::land(a(), b()), c());
  Formula g = ltl::land({a(), b(), c()});
  EXPECT_EQ(f, g);
  EXPECT_EQ(f.arity(), 3u);
}

TEST(Formula, FlatteningPreservesOrder) {
  Formula f = ltl::land({c(), a(), b()});
  EXPECT_EQ(ltl::to_string(f), "c && a && b");
}

TEST(Formula, DuplicateOperandsDropped) {
  EXPECT_EQ(ltl::land({a(), a(), b()}), ltl::land(a(), b()));
  EXPECT_EQ(ltl::lor({a(), a()}), a());
}

TEST(Formula, AtomsCollectsAllPropositions) {
  Formula f = ltl::always(ltl::implies(ltl::land(a(), b()), ltl::next(c())));
  const auto atoms = f.atoms();
  EXPECT_EQ(atoms, (std::set<std::string>{"a", "b", "c"}));
}

TEST(Formula, LengthCountsTreeUnfolding) {
  // G (a -> b): always, implies, a, b => 4 nodes.
  Formula f = ltl::always(ltl::implies(a(), b()));
  EXPECT_EQ(f.length(), 4u);
}

TEST(Formula, IsPropositional) {
  EXPECT_TRUE(ltl::implies(a(), ltl::lor(b(), c())).is_propositional());
  EXPECT_FALSE(ltl::next(a()).is_propositional());
  EXPECT_FALSE(ltl::land(a(), ltl::eventually(b())).is_propositional());
}

TEST(Printer, MatchesPaperShapes) {
  Formula req17 = ltl::always(ltl::implies(ltl::ap("enter_auto_control_mode"),
                                           ltl::eventually(ltl::ap("inflate_cuff"))));
  EXPECT_EQ(ltl::to_string(req17),
            "G (enter_auto_control_mode -> F inflate_cuff)");
  EXPECT_EQ(ltl::to_string(req17, ltl::Style::kPaper),
            "□ (enter_auto_control_mode → ♦ inflate_cuff)");
}

TEST(Printer, NextChains) {
  Formula f = ltl::always(
      ltl::implies(ltl::lnot(ltl::ap("air_ok")), ltl::next_n(ltl::ap("term"), 3)));
  EXPECT_EQ(ltl::to_string(f), "G (!air_ok -> X X X term)");
}

TEST(Printer, PrecedenceParens) {
  Formula f = ltl::land(ltl::lor(a(), b()), c());
  EXPECT_EQ(ltl::to_string(f), "(a || b) && c");
  Formula g = ltl::lor(ltl::land(a(), b()), c());
  EXPECT_EQ(ltl::to_string(g), "a && b || c");
}

TEST(Parser, RoundTripsSimpleFormulas) {
  const std::vector<std::string> inputs = {
      "a",
      "!a",
      "a && b",
      "a || b && c",
      "(a || b) && c",
      "a -> b -> c",
      "a <-> b",
      "X X a",
      "G (a -> F b)",
      "a U b",
      "a W b",
      "a R b",
      "G (a -> (b W c))",
      "true",
      "false",
  };
  for (const auto& in : inputs) {
    Formula f = ltl::parse(in);
    Formula g = ltl::parse(ltl::to_string(f));
    EXPECT_EQ(f, g) << "round trip failed for: " << in;
  }
}

TEST(Parser, BindingStrengths) {
  // U binds looser than || and &&, tighter than ->.
  EXPECT_EQ(ltl::parse("a || b U c"), ltl::until(ltl::lor(a(), b()), c()));
  EXPECT_EQ(ltl::parse("a U b -> c"), ltl::implies(ltl::until(a(), b()), c()));
  EXPECT_EQ(ltl::parse("!a && b"), ltl::land(ltl::lnot(a()), b()));
}

TEST(Parser, RejectsMalformedInput) {
  EXPECT_THROW((void)ltl::parse(""), speccc::util::ParseError);
  EXPECT_THROW((void)ltl::parse("a &&"), speccc::util::ParseError);
  EXPECT_THROW((void)ltl::parse("(a"), speccc::util::ParseError);
  EXPECT_THROW((void)ltl::parse("a b"), speccc::util::ParseError);
  EXPECT_THROW((void)ltl::parse("a & b"), speccc::util::ParseError);
  EXPECT_THROW((void)ltl::parse("->"), speccc::util::ParseError);
}

// Round-trip property: under hash-consing, parse(to_string(f)) must return
// the very same node for arbitrary formulas, not just the hand-picked list
// above. The difftest generator supplies the arbitrary part.
TEST(Parser, RoundTripsRandomFormulas) {
  speccc::difftest::FormulaConfig config;
  config.max_depth = 5;
  speccc::util::Rng rng(20260730);
  for (int i = 0; i < 300; ++i) {
    const Formula f = speccc::difftest::random_formula(rng, config);
    EXPECT_EQ(ltl::parse(ltl::to_string(f)), f)
        << "round trip failed for: " << ltl::to_string(f);
  }
}

TEST(Parser, RoundTripsThePaperStyleTooDeepNesting) {
  // Regression guard for printer precedence: deeply right-nested binary
  // temporal operators round-trip without parenthesis loss.
  const std::string in = "a U (b W (c R (a U b)))";
  const Formula f = ltl::parse(in);
  EXPECT_EQ(ltl::parse(ltl::to_string(f)), f);
}

TEST(Rewrite, NnfPushesNegations) {
  Formula f = ltl::lnot(ltl::always(ltl::implies(a(), ltl::eventually(b()))));
  // !G(a -> F b) == F (a && G !b)
  Formula expected =
      ltl::eventually(ltl::land(a(), ltl::always(ltl::lnot(b()))));
  EXPECT_EQ(ltl::nnf(f), expected);
}

TEST(Rewrite, NnfHandlesUntilDualities) {
  EXPECT_EQ(ltl::nnf(ltl::lnot(ltl::until(a(), b()))),
            ltl::release(ltl::lnot(a()), ltl::lnot(b())));
  EXPECT_EQ(ltl::nnf(ltl::lnot(ltl::release(a(), b()))),
            ltl::until(ltl::lnot(a()), ltl::lnot(b())));
  EXPECT_EQ(ltl::nnf(ltl::lnot(ltl::next(a()))), ltl::next(ltl::lnot(a())));
}

TEST(Rewrite, NnfIsIdempotent) {
  const std::vector<std::string> inputs = {
      "!(a U (b && !c))", "!(a W b)", "!(a <-> b)", "!G F a", "!(a -> b)"};
  for (const auto& in : inputs) {
    Formula f = ltl::nnf(ltl::parse(in));
    EXPECT_EQ(f, ltl::nnf(f)) << in;
  }
}

TEST(Rewrite, MaxNextChain) {
  EXPECT_EQ(ltl::max_next_chain(ltl::parse("a")), 0u);
  EXPECT_EQ(ltl::max_next_chain(ltl::parse("X a")), 1u);
  EXPECT_EQ(ltl::max_next_chain(ltl::parse("G (a -> X X X b)")), 3u);
  EXPECT_EQ(ltl::max_next_chain(ltl::parse("X X a && X b")), 2u);
}

// ---- Lasso semantics --------------------------------------------------------

ltl::Lasso make_lasso(std::initializer_list<ltl::Valuation> steps,
                      std::size_t loop_start) {
  return ltl::Lasso(std::vector<ltl::Valuation>(steps), loop_start);
}

TEST(Trace, PropositionalEvaluation) {
  auto w = make_lasso({{"a"}, {"b"}}, 1);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("a"), w, 0));
  EXPECT_FALSE(ltl::evaluate(ltl::parse("b"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("a -> !b"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("X b"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("X X b"), w, 0));  // loop on b
}

TEST(Trace, AlwaysOnLoop) {
  // a holds only in the prefix; loop has b.
  auto w = make_lasso({{"a"}, {"b"}}, 1);
  EXPECT_FALSE(ltl::evaluate(ltl::parse("G a"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("G b"), w, 1));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("X G b"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("F G b"), w, 0));
}

TEST(Trace, EventuallyFindsLaterStep) {
  auto w = make_lasso({{}, {}, {"goal"}, {}}, 3);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("F goal"), w, 0));
  // Once past the goal, it never recurs (loop excludes it).
  EXPECT_FALSE(ltl::evaluate(ltl::parse("F goal"), w, 3));
  EXPECT_FALSE(ltl::evaluate(ltl::parse("G F goal"), w, 0));
}

TEST(Trace, UntilSemantics) {
  auto w = make_lasso({{"p"}, {"p"}, {"q"}, {}}, 3);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("p U q"), w, 0));
  EXPECT_FALSE(ltl::evaluate(ltl::parse("p U r"), w, 0));
  // Weak until is satisfied by G p even without the release.
  auto w2 = make_lasso({{"p"}}, 0);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("p W q"), w2, 0));
  EXPECT_FALSE(ltl::evaluate(ltl::parse("p U q"), w2, 0));
}

TEST(Trace, ReleaseSemantics) {
  // a R b: b must hold up to and including the first a.
  auto w = make_lasso({{"b"}, {"a", "b"}, {}}, 2);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("a R b"), w, 0));
  auto w2 = make_lasso({{"b"}, {"a"}, {}}, 2);
  EXPECT_FALSE(ltl::evaluate(ltl::parse("a R b"), w2, 0));
  auto w3 = make_lasso({{"b"}}, 0);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("a R b"), w3, 0));  // b forever
}

TEST(Trace, PaperFootnoteFormulaOnWitness) {
  // G (out <-> X X X in): satisfied by a trace where out anticipates in by
  // exactly 3 steps (all-empty trace works trivially).
  auto w = make_lasso({{}}, 0);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("G (out <-> X X X in)"), w, 0));
  auto w2 = make_lasso({{"out"}, {}, {}, {"in"}}, 3);
  EXPECT_FALSE(ltl::evaluate(ltl::parse("G (out <-> X X X in)"), w2, 0));
}

// ---- Lasso edge cases -------------------------------------------------------

TEST(Lasso, SingleStepLoop) {
  // One position that loops on itself: successor(0) == 0.
  auto w = make_lasso({{"p"}}, 0);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.successor(0), 0u);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("G p"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("X p"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("X X X p"), w, 0));
  EXPECT_FALSE(ltl::evaluate(ltl::parse("F q"), w, 0));
}

TEST(Lasso, LoopStartAtLastPosition) {
  // The loop is the single final position: the suffix stutters forever.
  auto w = make_lasso({{"a"}, {}, {"p"}}, 2);
  EXPECT_EQ(w.successor(0), 1u);
  EXPECT_EQ(w.successor(1), 2u);
  EXPECT_EQ(w.successor(2), 2u);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("F G p"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("G (a -> F p)"), w, 0));
  // a never recurs once the loop is entered.
  EXPECT_FALSE(ltl::evaluate(ltl::parse("G F a"), w, 0));
}

TEST(Lasso, WrapAroundSuccessor) {
  // Loop of length 3 starting at 1: the last position wraps to 1, not 0.
  auto w = make_lasso({{"a"}, {"p"}, {}, {"q"}}, 1);
  EXPECT_EQ(w.successor(3), 1u);
  // X at the last position reads the loop start.
  EXPECT_TRUE(ltl::evaluate(ltl::parse("X p"), w, 3));
  // a lives only in the never-revisited prefix.
  EXPECT_TRUE(ltl::evaluate(ltl::parse("a && !F X X X X a"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("G F q"), w, 0));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("G F p"), w, 3));
}

TEST(Lasso, EvaluateAtLaterPositions) {
  auto w = make_lasso({{"p"}, {"q"}, {"r"}}, 1);
  EXPECT_TRUE(ltl::evaluate(ltl::parse("q"), w, 1));
  EXPECT_TRUE(ltl::evaluate(ltl::parse("G (q || r)"), w, 1));
  EXPECT_FALSE(ltl::evaluate(ltl::parse("F p"), w, 1));
}

TEST(Lasso, RejectsMalformedShapes) {
  // Empty step list and out-of-range loop start violate the contract.
  EXPECT_THROW(ltl::Lasso(std::vector<ltl::Valuation>{}, 0),
               speccc::util::InternalError);
  EXPECT_THROW(make_lasso({{"p"}, {}}, 2), speccc::util::InternalError);
  auto w = make_lasso({{"p"}}, 0);
  EXPECT_THROW((void)w.at(1), speccc::util::InternalError);
  EXPECT_THROW((void)w.successor(1), speccc::util::InternalError);
}

// Property sweep: NNF preserves lasso semantics on a family of formulas and
// deterministic pseudo-random lassos.
class NnfSemanticsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(NnfSemanticsTest, NnfPreservesSemantics) {
  Formula f = ltl::parse(GetParam());
  Formula g = ltl::nnf(f);
  speccc::util::Rng rng(1234);
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t len = 1 + rng.below(6);
    const std::size_t loop = rng.below(len);
    std::vector<ltl::Valuation> steps(len);
    for (auto& step : steps) {
      for (const char* name : {"a", "b", "c"}) {
        if (rng.chance(1, 2)) step.insert(name);
      }
    }
    ltl::Lasso w(steps, loop);
    EXPECT_EQ(ltl::evaluate(f, w), ltl::evaluate(g, w))
        << "nnf mismatch on " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NnfSemanticsTest,
    ::testing::Values("!(a U b)", "!(a W b)", "!(a R b)", "!(a <-> b)",
                      "!G (a -> F b)", "!(a -> (b U c))", "G (a -> X X b)",
                      "!F (a && X b)", "a W (b && c)", "!(a U (b W c))",
                      "G F a -> F G b", "!(X a <-> F b)"));

// ---- Pattern recognition ----------------------------------------------------

TEST(Patterns, RecognizeInvariant) {
  auto p = ltl::recognize_pattern(ltl::parse("G (a -> b || c)"));
  ASSERT_TRUE(p.has_value());
  // G of a propositional implication is an implication pattern.
  EXPECT_EQ(p->kind, ltl::PatternKind::kImplication);
  EXPECT_EQ(p->guard, a());
  EXPECT_EQ(p->delay, 0u);
}

TEST(Patterns, RecognizePureInvariant) {
  auto p = ltl::recognize_pattern(ltl::parse("G (!a || b)"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, ltl::PatternKind::kInvariant);
}

TEST(Patterns, RecognizeDelayedImplication) {
  auto p = ltl::recognize_pattern(ltl::parse("G (a && b -> X X X c)"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, ltl::PatternKind::kImplication);
  EXPECT_EQ(p->delay, 3u);
  EXPECT_EQ(p->consequent, c());
}

TEST(Patterns, RecognizeGuardDelayed) {
  // The paper's Req-28 shape.
  auto p = ltl::recognize_pattern(ltl::parse("G (X X X !bp -> trigger)"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, ltl::PatternKind::kGuardDelayed);
  EXPECT_EQ(p->delay, 3u);
}

TEST(Patterns, RecognizeResponse) {
  auto p = ltl::recognize_pattern(ltl::parse("G (a -> F b)"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, ltl::PatternKind::kResponse);
}

TEST(Patterns, RecognizeNestedGuards) {
  // Req-17.4 shape: G (a -> (b -> c)).
  auto p = ltl::recognize_pattern(ltl::parse("G (a -> (b && !d -> c))"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, ltl::PatternKind::kImplication);
  EXPECT_EQ(p->guard, ltl::land(a(), ltl::land(b(), ltl::lnot(ltl::ap("d")))));
}

TEST(Patterns, RecognizeWeakUntil) {
  // Req-49 shape.
  auto p = ltl::recognize_pattern(
      ltl::parse("G (btn -> (!press -> (btn W press)))"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, ltl::PatternKind::kWeakUntil);
  EXPECT_EQ(p->guard, ltl::land(ltl::ap("btn"), ltl::lnot(ltl::ap("press"))));
  EXPECT_EQ(p->consequent, ltl::ap("btn"));
  EXPECT_EQ(p->release, ltl::ap("press"));
}

TEST(Patterns, RecognizeExistence) {
  auto p = ltl::recognize_pattern(ltl::parse("F done"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, ltl::PatternKind::kExistence);
}

TEST(Patterns, RejectsOutsideFragment) {
  EXPECT_FALSE(ltl::recognize_pattern(ltl::parse("G (a -> F X b)")).has_value());
  EXPECT_FALSE(ltl::recognize_pattern(ltl::parse("G F a -> G F b")).has_value());
  EXPECT_FALSE(ltl::recognize_pattern(ltl::parse("a U b")).has_value());
  EXPECT_FALSE(
      ltl::recognize_pattern(ltl::parse("G (F a -> b)")).has_value());
}

TEST(Patterns, DecomposesCoordinatedClauses) {
  using K = ltl::PatternKind;
  // A single pattern instance decomposes to itself.
  auto parts = ltl::decompose_patterns(ltl::parse("F done"));
  ASSERT_TRUE(parts.has_value());
  ASSERT_EQ(parts->size(), 1u);
  EXPECT_EQ((*parts)[0].kind, K::kExistence);
  // Anything else is read clause by clause: G (a -> b && F c) is the CNF
  // (!a || b) && (!a || F c), one instance per clause.
  parts = ltl::decompose_patterns(ltl::parse("G (a -> b && F c)"));
  ASSERT_TRUE(parts.has_value());
  ASSERT_EQ(parts->size(), 2u);
  EXPECT_EQ((*parts)[0].kind, K::kLookahead);
  EXPECT_EQ((*parts)[0].guard, ltl::lor(ltl::lnot(a()), b()));
  EXPECT_EQ((*parts)[1].kind, K::kResponse);
  EXPECT_EQ((*parts)[1].guard, a());
  EXPECT_EQ((*parts)[1].consequent, c());
  // A clause of lookahead literals is one lookahead instance: deadlines in
  // a disjunction or in a condition.
  for (const char* text : {"G (a -> b || X X c)", "G (a && X b -> c)",
                           "G (a || X b -> c)"}) {
    const ltl::Formula f = ltl::parse(text);
    parts = ltl::decompose_patterns(f);
    ASSERT_TRUE(parts.has_value()) << text;
    ASSERT_EQ(parts->size(), 1u) << text;
    EXPECT_EQ((*parts)[0].kind, K::kLookahead) << text;
    EXPECT_EQ((*parts)[0].guard, f.child(0)) << text;
  }
}

TEST(Patterns, DecomposesTheClauseShapes) {
  using K = ltl::PatternKind;
  const auto kinds = [](const char* text) {
    std::vector<K> out;
    const auto parts = ltl::decompose_patterns(ltl::parse(text));
    if (parts.has_value()) {
      for (const auto& p : *parts) out.push_back(p.kind);
    }
    return out;
  };
  // Eventually in a condition: G (F d -> r) == G (!r -> (!d W false)).
  EXPECT_EQ(kinds("G (F a -> b)"), std::vector<K>{K::kWeakUntil});
  // Future tense under until: a weak until whose hold is a response.
  EXPECT_EQ(kinds("G (!p -> (F a W p))"), std::vector<K>{K::kWeakUntil});
  // Deadlines in a disjunction or on both sides: lookahead safety.
  EXPECT_EQ(kinds("G (X X a || X X X b)"), std::vector<K>{K::kLookahead});
  EXPECT_EQ(kinds("G (X a -> X X b)"), std::vector<K>{K::kLookahead});
  // A timed condition with an eventual consequent: a lagged response.
  EXPECT_EQ(kinds("G (X a -> F b)"), std::vector<K>{K::kResponse});
  // Until eventually: p W F q == F q || G p, read as (p || F q) W q.
  EXPECT_EQ(kinds("G (!F q -> (F a W F q))"), std::vector<K>{K::kWeakUntil});
  // Two eventual conditions: one of two invariants from the trigger on.
  EXPECT_EQ(kinds("G (F a && F b -> x)"), std::vector<K>{K::kAlwaysOneOf});
  // An eventual condition with an until: one monitor; with an eventual
  // hold, one weak until per side of the first failure.
  EXPECT_EQ(kinds("G (F d -> (!p -> (a W p)))"), std::vector<K>{K::kAlwaysOneOf});
  EXPECT_EQ(kinds("G (F d -> (!p -> (F a W p)))"),
            (std::vector<K>{K::kWeakUntil, K::kWeakUntil}));
}

TEST(Patterns, LookaheadDepth) {
  EXPECT_EQ(ltl::lookahead_depth(ltl::parse("a")), 0u);
  EXPECT_EQ(ltl::lookahead_depth(ltl::parse("X (a && X b) || X c")), 2u);
  EXPECT_FALSE(ltl::lookahead_depth(ltl::parse("X F a")).has_value());
}

TEST(Patterns, DecomposeRejectsWhatNoClauseCovers) {
  for (const char* text : {"G F a -> G F b", "G (a -> F G b)", "G !(a W b)",
                           "G (a -> (b U c) || F d)", "a U b"}) {
    EXPECT_FALSE(ltl::decompose_patterns(ltl::parse(text)).has_value()) << text;
  }
}

}  // namespace
