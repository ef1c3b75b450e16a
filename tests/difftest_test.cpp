// Tests for the differential oracle harness: the random generators, the
// cross-check oracle of the symbolic product engine against the reference
// engines, the greedy shrinker, and the end-to-end run() acceptance bar
// (500 random formulas, 50 generated specifications per seed and the fixed
// corpus cases with zero disagreements, plus injected-bug detection shrunk
// to a minimal core).
#include <gtest/gtest.h>

#include <tuple>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "corpus/loaders.hpp"
#include "diag/diag.hpp"
#include "difftest/harness.hpp"
#include "difftest/oracle.hpp"
#include "difftest/random.hpp"
#include "difftest/shrink.hpp"
#include "ltl/parser.hpp"
#include "ltl/trace.hpp"
#include "refine/refine.hpp"
#include "synth/bounded.hpp"
#include "synth/synthesizer.hpp"
#include "stage3_reference.hpp"
#include "util/diagnostics.hpp"

namespace difftest = speccc::difftest;
namespace ltl = speccc::ltl;
namespace corpus = speccc::corpus;
using speccc::util::Rng;

namespace {

bool contains_op(ltl::Formula f, ltl::Op op) {
  if (f.op() == op) return true;
  for (std::size_t i = 0; i < f.arity(); ++i) {
    if (contains_op(f.child(i), op)) return true;
  }
  return false;
}

/// An injected substrate bug: trace evaluation that mishandles weak-until.
/// The harness must catch it (tableau witnesses stop validating) and
/// shrink the counterexample to a minimal W formula.
bool broken_weak_until_evaluate(ltl::Formula f, const ltl::Lasso& lasso) {
  const bool truth = ltl::evaluate(f, lasso);
  return contains_op(f, ltl::Op::kWeakUntil) ? !truth : truth;
}

// ---- Random generators ------------------------------------------------------

TEST(RandomFormula, DeterministicForFixedSeed) {
  const difftest::FormulaConfig config;
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(difftest::random_formula(a, config),
              difftest::random_formula(b, config));
  }
}

TEST(RandomFormula, DrawsFromTheConfiguredPool) {
  difftest::FormulaConfig config;
  config.props = difftest::proposition_pool(4);
  const std::set<std::string> pool(config.props.begin(), config.props.end());
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const ltl::Formula f = difftest::random_formula(rng, config);
    for (const std::string& atom : f.atoms()) {
      EXPECT_TRUE(pool.count(atom) > 0) << atom;
    }
  }
}

TEST(RandomFormula, CoversEveryOperator) {
  difftest::FormulaConfig config;
  config.max_depth = 5;
  Rng rng(13);
  std::set<ltl::Op> seen;
  const std::function<void(ltl::Formula)> walk = [&](ltl::Formula f) {
    seen.insert(f.op());
    for (std::size_t i = 0; i < f.arity(); ++i) walk(f.child(i));
  };
  for (int i = 0; i < 400; ++i) walk(difftest::random_formula(rng, config));
  for (const ltl::Op op :
       {ltl::Op::kNot, ltl::Op::kAnd, ltl::Op::kOr, ltl::Op::kImplies,
        ltl::Op::kIff, ltl::Op::kNext, ltl::Op::kEventually, ltl::Op::kAlways,
        ltl::Op::kUntil, ltl::Op::kWeakUntil, ltl::Op::kRelease}) {
    EXPECT_TRUE(seen.count(op) > 0) << ltl::op_name(op);
  }
}

TEST(RandomLasso, WellFormedAndDeterministic) {
  const difftest::LassoConfig config;
  Rng a(3);
  Rng b(3);
  for (int i = 0; i < 100; ++i) {
    const ltl::Lasso la = difftest::random_lasso(a, config);
    const ltl::Lasso lb = difftest::random_lasso(b, config);
    ASSERT_EQ(la.size(), lb.size());
    ASSERT_LT(la.loop_start(), la.size());
    ASSERT_LE(la.size(), config.max_prefix + config.max_loop);
    for (std::size_t pos = 0; pos < la.size(); ++pos) {
      EXPECT_EQ(la.at(pos), lb.at(pos));
      for (const std::string& p : la.at(pos)) {
        EXPECT_NE(std::find(config.props.begin(), config.props.end(), p),
                  config.props.end());
      }
    }
  }
}

TEST(RandomScale, StaysInsideTheConfiguredBox) {
  const difftest::SpecConfig config;
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const corpus::SpecScale scale =
        difftest::random_scale(rng, config, "box", 9);
    EXPECT_GE(scale.formulas, config.min_formulas);
    EXPECT_LE(scale.formulas, config.max_formulas);
    EXPECT_GE(scale.inputs, config.min_inputs);
    EXPECT_LE(scale.inputs, config.max_inputs);
    EXPECT_GE(scale.outputs, config.min_outputs);
    EXPECT_LE(scale.outputs, config.max_outputs);
    // Feasible for the sentence generator's per-requirement budget.
    EXPECT_LE(scale.inputs, 3 * scale.formulas);
    EXPECT_LE(scale.outputs, 2 * scale.formulas);
  }
}

// ---- Shrinker ---------------------------------------------------------------

TEST(Shrinker, CandidatesAreStrictlySmaller) {
  const ltl::Formula f = ltl::parse("G ((a U b) && c) || X d");
  for (const ltl::Formula cand : difftest::shrink_candidates(f)) {
    EXPECT_LT(cand.length(), f.length()) << ltl::to_string(cand);
    EXPECT_NE(cand, f);
  }
}

TEST(Shrinker, CandidatesIncludeSubformulasAndConstants) {
  const ltl::Formula f = ltl::parse("G (a -> b)");
  const auto candidates = difftest::shrink_candidates(f);
  const auto has = [&](ltl::Formula g) {
    return std::find(candidates.begin(), candidates.end(), g) !=
           candidates.end();
  };
  EXPECT_TRUE(has(ltl::tru()));
  EXPECT_TRUE(has(ltl::fls()));
  EXPECT_TRUE(has(ltl::parse("a -> b")));
  EXPECT_TRUE(has(ltl::parse("G a")));  // child `a -> b` shrunk to `a`
}

TEST(Shrinker, MinimizesToTheUntilCore) {
  const ltl::Formula start = ltl::parse("G ((a U b) && c) || X (d <-> e)");
  const auto fails = [](ltl::Formula f) {
    return contains_op(f, ltl::Op::kUntil);
  };
  ASSERT_TRUE(fails(start));
  const ltl::Formula shrunk = difftest::shrink_formula(start, fails);
  EXPECT_TRUE(fails(shrunk));
  EXPECT_LE(shrunk.length(), 3u) << ltl::to_string(shrunk);
}

TEST(Shrinker, ResultStillFailsWheneverInputDoes) {
  // A predicate that is NOT monotone under shrinking: exactly 5 nodes.
  const ltl::Formula start = ltl::parse("G (a -> X b)");
  const auto fails = [](ltl::Formula f) { return f.length() == 5; };
  ASSERT_TRUE(fails(start));
  EXPECT_TRUE(fails(difftest::shrink_formula(start, fails)));
}

TEST(Shrinker, SpecShrinkDropsIrrelevantRequirements) {
  const std::vector<ltl::Formula> spec = {
      ltl::parse("G (a -> b)"),
      ltl::parse("G ((a U b) || X c)"),
      ltl::parse("F d"),
  };
  const auto fails = [](const std::vector<ltl::Formula>& requirements) {
    for (const ltl::Formula f : requirements) {
      if (contains_op(f, ltl::Op::kUntil)) return true;
    }
    return false;
  };
  ASSERT_TRUE(fails(spec));
  const auto shrunk = difftest::shrink_spec(spec, fails);
  ASSERT_EQ(shrunk.size(), 1u);
  EXPECT_TRUE(contains_op(shrunk[0], ltl::Op::kUntil));
  EXPECT_LE(shrunk[0].length(), 3u) << ltl::to_string(shrunk[0]);
}

// ---- Oracle -----------------------------------------------------------------

TEST(Oracle, AcceptsCanonicalFormulas) {
  const std::vector<std::string> inputs = {
      "true",
      "false",
      "a && !a",          // unsatisfiable
      "a || !a",          // valid
      "G (a -> F b)",
      "a U (b R c)",
      "(a W b) <-> (c U d)",
      "X X (a -> b)",
      "G F a && F G !a",  // unsatisfiable conjunction of fairness constraints
  };
  for (const std::string& in : inputs) {
    Rng rng(101);
    EXPECT_EQ(difftest::check_formula(ltl::parse(in), rng), std::nullopt)
        << in;
  }
}

TEST(Oracle, CatchesABrokenTraceEvaluator) {
  difftest::OracleOptions options;
  options.evaluate = broken_weak_until_evaluate;
  Rng rng(55);
  const auto failure = difftest::check_formula(ltl::parse("a W b"), rng, options);
  ASSERT_TRUE(failure.has_value());
  // Formulas without W are still clean under the broken evaluator.
  Rng rng2(55);
  EXPECT_EQ(difftest::check_formula(ltl::parse("a U b"), rng2, options),
            std::nullopt);
}

TEST(Oracle, BuildsSpecCasesWithCoveringSignatures) {
  const corpus::SpecScale scale{"oracle", 5, 3, 3, 77, 25, 25};
  const auto spec =
      difftest::build_spec_case(corpus::generate_spec(scale, corpus::device_theme()));
  ASSERT_EQ(spec.requirements.size(), 5u);
  EXPECT_EQ(spec.signature.inputs.size(), 3u);
  EXPECT_EQ(spec.signature.outputs.size(), 3u);
  std::set<std::string> known(spec.signature.inputs.begin(),
                              spec.signature.inputs.end());
  known.insert(spec.signature.outputs.begin(), spec.signature.outputs.end());
  for (const ltl::Formula f : spec.requirements) {
    for (const std::string& atom : f.atoms()) {
      EXPECT_TRUE(known.count(atom) > 0) << atom;
    }
  }
}

TEST(Oracle, AcceptsAHandWrittenSpecCase) {
  difftest::SpecCase spec;
  spec.requirements = {ltl::parse("G (in -> out)"),
                       ltl::parse("G (req -> F out)")};
  spec.signature = {{"in", "req"}, {"out"}};
  Rng rng(9);
  EXPECT_EQ(difftest::check_spec(spec, rng), std::nullopt);
}

// ---- Harness acceptance -----------------------------------------------------

TEST(Harness, CaseSeedsAreStableAndPairwiseDistinct) {
  EXPECT_EQ(difftest::case_seed(1, difftest::CaseKind::kFormula, 0),
            difftest::case_seed(1, difftest::CaseKind::kFormula, 0));
  std::set<std::uint64_t> seeds;
  for (int i = 0; i < 100; ++i) {
    seeds.insert(difftest::case_seed(1, difftest::CaseKind::kFormula, i));
    seeds.insert(difftest::case_seed(1, difftest::CaseKind::kSpec, i));
    seeds.insert(difftest::case_seed(2, difftest::CaseKind::kFormula, i));
  }
  EXPECT_EQ(seeds.size(), 300u);
}

TEST(Harness, FiveHundredRandomFormulasNoDisagreement) {
  difftest::RunOptions options;
  options.seed = 20260730;
  options.formula_cases = 500;
  options.spec_cases = 0;
  const difftest::RunReport report = difftest::run(options);
  EXPECT_EQ(report.formulas_checked, 500);
  EXPECT_TRUE(report.ok()) << difftest::describe(report);
}

TEST(Harness, FiftyGeneratedSpecsNoDisagreement) {
  difftest::RunOptions options;
  options.seed = 20260730;
  options.formula_cases = 0;
  options.spec_cases = 50;
  const difftest::RunReport report = difftest::run(options);
  EXPECT_EQ(report.specs_checked, 50);
  EXPECT_TRUE(report.ok()) << difftest::describe(report);
}

// The corpus specifications the product is measured on -- Table I,
// examples/specs and its faults -- and one specification per grammar
// production are fixed cases of the spec lane, run on every seed: the
// standing cross-check of the product engine against the bounded
// reference engine on real inputs.
TEST(Harness, FixedCorpusCasesNoDisagreement) {
  difftest::RunOptions options;
  options.formula_cases = 0;
  options.spec_cases = 0;
  options.fixed_specs = difftest::fixed_spec_cases(SPECCC_EXAMPLES_DIR);
  const std::size_t grammar = difftest::grammar_sentences().size();
  ASSERT_EQ(options.fixed_specs.size(), 22u + grammar + 7u);
  const difftest::RunReport report = difftest::run(options);
  EXPECT_EQ(report.fixed_checked, static_cast<int>(22u + grammar + 7u));
  EXPECT_TRUE(report.ok()) << difftest::describe(report);
  // What the lane cross-checks: bounded decides every grammar case and
  // three examples; 18 Table I rows are past its alphabet cap, and four
  // Table I rows and four examples end kUnknown at the oracle's caps.
  const difftest::RunReport::BoundedCounts& bounded = report.fixed_bounded;
  EXPECT_EQ(bounded.definite, static_cast<int>(grammar) + 3);
  EXPECT_EQ(bounded.abstained, 18);
  EXPECT_EQ(bounded.unknown, 8);
  EXPECT_NE(difftest::describe(report).find(
                "(bounded: " + std::to_string(grammar + 3) +
                " definite, 8 unknown, 18 past the alphabet cap)"),
            std::string::npos);
}

// Every grammar case gets a definite bounded verdict, so each sentence
// shape -- those the clause reading decomposes included -- is
// cross-checked against the symbolic verdict on every seed.
TEST(Harness, BoundedDecidesEveryGrammarCase) {
  difftest::RunOptions options;
  options.formula_cases = 0;
  options.spec_cases = 0;
  for (const auto& task : difftest::fixed_spec_cases("/nonexistent-examples")) {
    if (task.name.rfind("grammar/", 0) == 0) options.fixed_specs.push_back(task);
  }
  const int grammar = static_cast<int>(difftest::grammar_sentences().size());
  ASSERT_EQ(static_cast<int>(options.fixed_specs.size()), grammar);
  const difftest::RunReport report = difftest::run(options);
  EXPECT_TRUE(report.ok()) << difftest::describe(report);
  EXPECT_EQ(report.fixed_bounded.definite, grammar) << difftest::describe(report);
}

TEST(Harness, MissingExamplesDirectoryLeavesTheBuiltInCases) {
  const auto cases = difftest::fixed_spec_cases("/nonexistent-examples");
  EXPECT_EQ(cases.size(), 22u + difftest::grammar_sentences().size());
}

// Future tense under until, eventually in a condition and deadlines under
// until, in disjunctions or on both sides of a condition are decided by
// the product engine; bounded reaches the same definite verdict on each,
// alone and beside a requirement that makes it unrealizable.
TEST(Harness, BoundedAgreesOnTheWidenedGrammarShapes) {
  using speccc::synth::Realizability;
  const std::vector<std::tuple<std::string, std::string, Realizability>> cases = {
      {"The alarm will be raised until the button is pressed.", "",
       Realizability::kRealizable},
      {"The alarm will be raised until the button is pressed.",
       "The alarm is not raised.", Realizability::kUnrealizable},
      {"If eventually the door is open, the alarm is raised.", "",
       Realizability::kRealizable},
      {"If eventually the door is open, the alarm is raised.",
       "The alarm is not raised.", Realizability::kUnrealizable},
      {"The alarm is raised in 20 seconds until the light is on.",
       "If the light is off, the alarm is not raised.",
       Realizability::kUnrealizable},
      {"The alarm is raised in 20 seconds or the light is on in 30 seconds.",
       "", Realizability::kRealizable},
      {"The alarm is raised in 20 seconds or the light is on in 30 seconds.",
       "The alarm is not raised.", Realizability::kUnrealizable},
      {"If the button is pressed in 20 seconds, the alarm is raised in 30 seconds.",
       "", Realizability::kRealizable},
      {"If the button is pressed in 20 seconds, the alarm is raised in 30 seconds.",
       "The alarm is not raised.", Realizability::kUnrealizable},
  };
  for (const auto& [first, second, verdict] : cases) {
    std::vector<speccc::translate::RequirementText> texts = {{"R1", first}};
    if (!second.empty()) texts.push_back({"R2", second});
    const difftest::SpecCase spec = difftest::build_spec_case(texts);
    const difftest::OracleOptions oracle;
    const auto bounded = speccc::synth::bounded_synthesize(
        ltl::land(spec.requirements), spec.signature, oracle.bounded);
    EXPECT_EQ(bounded.verdict, verdict) << first << " / " << second;
    const auto symbolic =
        speccc::synth::synthesize(spec.requirements, spec.signature);
    EXPECT_EQ(symbolic.verdict, verdict) << first << " / " << second;
    speccc::util::Rng rng(3);
    EXPECT_EQ(difftest::check_spec(spec, rng, oracle), std::nullopt)
        << first << " / " << second;
  }
}

// "If eventually the door is open, the alarm will be raised until the
// button is pressed." is G (F door -> !press -> (F raise W press)). Its
// clause has a G literal (G !door) beside a weak until whose hold is
// temporal, which ltl::decompose_patterns peels into two weak untils.
// With the alarm forbidden, only that literal saves the system: it can
// when the door is its own output and it keeps the door shut, and it
// cannot when the door is an input. Bounded ends kUnknown at the oracle's
// caps on the realizable spec, so the symbolic verdicts are pinned.
TEST(Harness, GLiteralPeelKeepsTheAlwaysDisjunct) {
  using speccc::synth::Realizability;
  const std::string peel =
      "If eventually the door is open, the alarm will be raised until the "
      "button is pressed.";
  for (const auto& [texts, verdict] :
       {std::pair{std::vector<speccc::translate::RequirementText>{
                      {"R1", peel},
                      {"R2", "The alarm is not raised."},
                      {"R3", "The door is not open."}},
                  Realizability::kRealizable},
        std::pair{std::vector<speccc::translate::RequirementText>{
                      {"R1", peel}, {"R2", "The alarm is not raised."}},
                  Realizability::kUnrealizable}}) {
    const difftest::SpecCase spec = difftest::build_spec_case(texts);
    EXPECT_EQ(speccc::synth::synthesize(spec.requirements, spec.signature)
                  .verdict,
              verdict)
        << texts.size() << " requirements";
    speccc::util::Rng rng(3);
    EXPECT_EQ(difftest::check_spec(spec, rng), std::nullopt);
  }
}

// Bounded is no empty check on the example specs: on these three it
// reaches a definite verdict under the oracle's caps, and the symbolic
// engine reaches the same one.
TEST(Harness, BoundedDecidesTheSmallExampleSpecsDefinitely) {
  using speccc::synth::Realizability;
  const std::vector<std::pair<std::string, Realizability>> expected = {
      {"patrol.txt", Realizability::kRealizable},
      {"faults/infusion_pump.txt", Realizability::kUnrealizable},
      {"faults/reservation.txt", Realizability::kUnrealizable},
  };
  const auto cases = difftest::fixed_spec_cases(SPECCC_EXAMPLES_DIR);
  for (const auto& [name, verdict] : expected) {
    const auto it = std::find_if(cases.begin(), cases.end(),
                                 [&](const auto& c) { return c.name == name; });
    ASSERT_NE(it, cases.end()) << name;
    const difftest::SpecCase spec = difftest::build_spec_case(it->requirements);
    const difftest::OracleOptions oracle;
    const auto bounded = speccc::synth::bounded_synthesize(
        ltl::land(spec.requirements), spec.signature, oracle.bounded);
    EXPECT_EQ(bounded.verdict, verdict) << name;
    const auto symbolic =
        speccc::synth::synthesize(spec.requirements, spec.signature);
    EXPECT_EQ(symbolic.verdict, verdict) << name;
  }
}

TEST(Harness, InjectedDisagreementIsCaughtAndShrunkToAMinimalCore) {
  difftest::RunOptions options;
  options.seed = 4;
  options.formula_cases = 300;
  options.spec_cases = 0;
  options.max_failures = 3;
  options.oracle.evaluate = broken_weak_until_evaluate;
  const difftest::RunReport report = difftest::run(options);
  ASSERT_FALSE(report.ok())
      << "300 random formulas never exercised the injected W bug";
  for (const difftest::CaseFailure& failure : report.failures) {
    EXPECT_TRUE(contains_op(failure.shrunk, ltl::Op::kWeakUntil))
        << ltl::to_string(failure.shrunk);
    EXPECT_LE(failure.shrunk.length(), 5u) << ltl::to_string(failure.shrunk);
    EXPECT_FALSE(failure.shrunk_detail.empty());
    EXPECT_NE(failure.reproduce.find("--formula-case"), std::string::npos);
  }
}

TEST(Harness, PinnedPreviouslySlowSeedStaysCleanAndFast) {
  // Seed 6, spec case 21: the slowest standing case of the pre-rewrite BDD
  // engine's seed sweep (~9 s wall, dominated by extracting and model
  // checking a 512-state controller). Pinned after the complement-edge
  // engine swap (which cut its symbolic extraction ~2.6x) so future engine
  // changes keep it agreeing -- and so a substrate regression that blows
  // up this case's controller or fixpoint shows up as a timeout here
  // instead of silently in a nightly sweep. Replayable alone via
  //   speccc_fuzz --seed 6 --spec-case 21
  difftest::RunOptions options;
  options.seed = 6;
  options.formula_cases = 0;
  options.spec_cases = 50;
  options.only_spec_case = 21;
  const difftest::RunReport report = difftest::run(options);
  EXPECT_EQ(report.specs_checked, 1);
  EXPECT_TRUE(report.ok()) << difftest::describe(report);
}

// ---- Planted-fault localization oracle --------------------------------------

std::string describe_planted(const difftest::PlantedSpec& spec,
                             std::uint64_t seed, int index) {
  std::string out = spec.name + " (generated_planted_spec(" +
                    std::to_string(seed) + ", " + std::to_string(index) +
                    "))\n";
  for (std::size_t i = 0; i < spec.requirements.size(); ++i) {
    out += "  [" + std::to_string(i) + "] " + spec.requirements[i].id + ": " +
           spec.requirements[i].text + "\n";
  }
  out += "  planted faults:";
  for (const auto& fault : spec.faults) {
    out += " {";
    for (std::size_t k = 0; k < fault.size(); ++k) {
      out += (k != 0U ? "," : "") + std::to_string(fault[k]);
    }
    out += "}";
  }
  return out;
}

// The ground-truth acceptance bar for the diag localization engine: over
// >= 50 planted-fault specs per seed, every spec is genuinely
// inconsistent, the MUS localization reports is verified
// minimal-inconsistent and is exactly one of the planted fault sets
// (faults use fresh disjoint vocabulary, so those are the only MUSes).
class PlantedFaultTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlantedFaultTest, LocalizationFindsAPlantedFaultOnEverySpec) {
  const std::uint64_t seed = GetParam();
  constexpr int kSpecs = 50;
  for (int index = 0; index < kSpecs; ++index) {
    const difftest::PlantedSpec spec =
        difftest::generated_planted_spec(seed, index);
    ASSERT_GE(spec.faults.size(), 2u);
    const difftest::SpecCase sc = difftest::build_spec_case(spec.requirements);
    speccc::diag::RealizabilityOracle realizability(sc.requirements);
    const auto oracle = realizability.under(sc.signature);

    std::vector<std::size_t> universe(sc.requirements.size());
    for (std::size_t i = 0; i < universe.size(); ++i) universe[i] = i;
    ASSERT_TRUE(oracle(universe).has_value())
        << "planted spec not inconsistent\n"
        << describe_planted(spec, seed, index);

    const auto mus_loc =
        speccc::refine::localize(sc.requirements, sc.signature);
    EXPECT_NE(std::find(spec.faults.begin(), spec.faults.end(), mus_loc.core),
              spec.faults.end())
        << "MUS is not a planted fault set\n"
        << describe_planted(spec, seed, index);
    for (std::size_t e : mus_loc.core) {
      std::vector<std::size_t> dropped;
      for (std::size_t x : mus_loc.core) {
        if (x != e) dropped.push_back(x);
      }
      EXPECT_FALSE(oracle(dropped).has_value())
          << "MUS not minimal at element " << e << "\n"
          << describe_planted(spec, seed, index);
    }
  }
}

// The stage-3 identity sweep: the pipeline decides every stage-3 question
// by output-connected components with a per-run memo and skips the screen
// for requirements a realizable component covered; the whole-set
// reference (stage3_reference.hpp) must report the same MUS, related set,
// adjustment, correction sets (cap 4) and unsatisfiable requirements.
TEST_P(PlantedFaultTest, StageThreeMatchesTheWholeSetReference) {
  const std::uint64_t seed = GetParam();
  speccc::core::PipelineOptions options;
  options.localization.max_correction_sets = 4;
  const speccc::core::Pipeline pipeline(options);
  for (int index = 0; index < 50; ++index) {
    const difftest::PlantedSpec spec =
        difftest::generated_planted_spec(seed, index);
    const auto result = pipeline.run(spec.name, spec.requirements);
    ASSERT_FALSE(result.synthesis.realizable())
        << describe_planted(spec, seed, index);
    EXPECT_EQ(stage3_reference::mismatch(result, 4), "")
        << describe_planted(spec, seed, index);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlantedFaultTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(StageThree, FaultExamplesMatchTheWholeSetReference) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           SPECCC_EXAMPLES_DIR "/specs/faults")) {
    if (entry.path().extension() == ".txt") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 4u);
  speccc::core::PipelineOptions options;
  options.localization.max_correction_sets = 4;
  const speccc::core::Pipeline pipeline(options);
  for (const auto& file : files) {
    std::ifstream in(file);
    const auto result = pipeline.run(file.stem().string(),
                                     speccc::corpus::load_requirements(in));
    EXPECT_EQ(stage3_reference::mismatch(result, 4), "") << file;
  }
}

TEST(Harness, SingleCaseReplayReproducesTheFailure) {
  difftest::RunOptions options;
  options.seed = 4;
  options.formula_cases = 300;
  options.spec_cases = 0;
  options.max_failures = 1;
  options.oracle.evaluate = broken_weak_until_evaluate;
  const difftest::RunReport first = difftest::run(options);
  ASSERT_FALSE(first.ok());

  difftest::RunOptions replay = options;
  replay.only_formula_case = first.failures[0].index;
  const difftest::RunReport second = difftest::run(replay);
  ASSERT_EQ(second.failures.size(), 1u);
  EXPECT_EQ(second.failures[0].detail, first.failures[0].detail);
  EXPECT_EQ(second.failures[0].shrunk, first.failures[0].shrunk);
  EXPECT_EQ(second.failures[0].case_seed, first.failures[0].case_seed);
}

TEST(Harness, DescribeListsEveryFailureWithReproduction) {
  difftest::RunOptions options;
  options.seed = 4;
  options.formula_cases = 300;
  options.spec_cases = 0;
  options.max_failures = 2;
  options.oracle.evaluate = broken_weak_until_evaluate;
  const difftest::RunReport report = difftest::run(options);
  ASSERT_FALSE(report.ok());
  const std::string text = difftest::describe(report);
  EXPECT_NE(text.find("reproduce: speccc_fuzz --seed 4"), std::string::npos)
      << text;
  EXPECT_NE(text.find("minimized:"), std::string::npos);
}

}  // namespace
