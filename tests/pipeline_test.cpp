// End-to-end integration tests: the full Fig. 1 pipeline over the three
// case-study corpora, reproducing the paper's Table I verdicts.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "corpus/cara.hpp"
#include "corpus/generator.hpp"
#include "corpus/loaders.hpp"
#include "corpus/robot.hpp"
#include "corpus/telepromise.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "difftest/harness.hpp"
#include "ltl/formula.hpp"
#include "ltl/parser.hpp"
#include "ltl/patterns.hpp"
#include "ltl/rewrite.hpp"
#include "ltl/trace.hpp"
#include "synth/synthesizer.hpp"
#include "synth/verify.hpp"
#include "util/diagnostics.hpp"

namespace batch = speccc::batch;
namespace core = speccc::core;
namespace corpus = speccc::corpus;
namespace difftest = speccc::difftest;
namespace ltl = speccc::ltl;
namespace translate = speccc::translate;

namespace {

TEST(PipelineCara, WorkingModeSpecIsConsistent) {
  core::Pipeline pipeline;
  const auto result =
      pipeline.run("CARA working mode", corpus::cara_working_mode_texts());
  EXPECT_TRUE(result.consistent);
  EXPECT_EQ(result.num_formulas(), 30u);  // the published formula count
  // The partition finds the paper's 22-23 inputs (22 published; ours differ
  // by one because the published formulas carry typo-induced propositions).
  EXPECT_NEAR(static_cast<double>(result.num_inputs()), 22.0, 1.5);
}

TEST(PipelineCara, TimeAbstractionMatchesPaperExample) {
  core::Pipeline pipeline;
  const auto result =
      pipeline.run("CARA working mode", corpus::cara_working_mode_texts());
  // Theta = {3, 180, 60}, B = 5 => d = 60, theta' = (0, 3, 1), error 3.
  ASSERT_TRUE(result.abstraction.has_value());
  EXPECT_EQ(result.abstraction->divisor, 60u);
  EXPECT_EQ(result.abstraction->reduced_sum, 4u);
  EXPECT_EQ(result.abstraction->error_sum, 3u);
}

TEST(PipelineCara, GoldenFormulasAfterAbstraction) {
  core::Pipeline pipeline;
  const auto result =
      pipeline.run("CARA working mode", corpus::cara_working_mode_texts());
  for (const auto& golden : corpus::cara_working_mode()) {
    const auto it =
        std::find_if(result.translation.requirements.begin(),
                     result.translation.requirements.end(),
                     [&golden](const auto& r) { return r.id == golden.id; });
    ASSERT_NE(it, result.translation.requirements.end()) << golden.id;
    EXPECT_EQ(speccc::ltl::to_string(it->formula), golden.expected)
        << golden.id;
  }
}

TEST(PipelineCara, AbstractionDisabledKeepsRawDelays) {
  core::PipelineOptions options;
  options.time_abstraction = false;
  core::Pipeline pipeline(options);
  const auto result =
      pipeline.run("CARA raw", corpus::cara_working_mode_texts());
  EXPECT_FALSE(result.abstraction.has_value());
  // Req-28 keeps its 180 X operators; the spec remains consistent (the GCD
  // claim: abstraction preserves realizability) but the monitors are much
  // larger.
  EXPECT_TRUE(result.consistent);
  EXPECT_GT(result.synthesis.state_bits, 180u);
}

TEST(PipelineCara, ComponentRowsMatchPublishedScale) {
  core::Pipeline pipeline;
  for (const auto& component : corpus::cara_component_specs()) {
    const auto result = pipeline.run(component.name, component.requirements);
    EXPECT_TRUE(result.consistent) << component.name;
    EXPECT_EQ(result.num_formulas(),
              static_cast<std::size_t>(component.table_formulas))
        << component.name;
    EXPECT_EQ(result.num_inputs(),
              static_cast<std::size_t>(component.table_inputs))
        << component.name;
    EXPECT_EQ(result.num_outputs(),
              static_cast<std::size_t>(component.table_outputs))
        << component.name;
  }
}

TEST(PipelineTele, AllFiveApplicationsEndConsistent) {
  core::Pipeline pipeline;
  for (const auto& tele : corpus::telepromise_specs()) {
    const auto result = pipeline.run(tele.name, tele.requirements);
    EXPECT_TRUE(result.consistent) << tele.name;
    EXPECT_EQ(result.num_formulas(),
              static_cast<std::size_t>(tele.table_formulas))
        << tele.name;
    EXPECT_EQ(result.num_inputs(), static_cast<std::size_t>(tele.table_inputs))
        << tele.name;
    EXPECT_EQ(result.num_outputs(),
              static_cast<std::size_t>(tele.table_outputs))
        << tele.name;
  }
}

TEST(PipelineTele, LastTwoNeedRepartitioning) {
  // The paper: "G4LTL failed to generate controllers for the last two
  // specifications. The failure was caused by the classification of input
  // and output variables. After ... modifying the input/output variable
  // partition, the specifications are consistent."
  core::Pipeline pipeline;
  for (const auto& tele : corpus::telepromise_specs()) {
    const auto result = pipeline.run(tele.name, tele.requirements);
    if (tele.partition_trap) {
      EXPECT_FALSE(result.synthesis.realizable()) << tele.name;
      ASSERT_TRUE(result.refinement.has_value()) << tele.name;
      EXPECT_TRUE(result.refinement->consistent) << tele.name;
      ASSERT_TRUE(result.refinement->adjustment.has_value()) << tele.name;
      EXPECT_FALSE(result.refinement->adjustment->now_input);
    } else {
      EXPECT_TRUE(result.synthesis.realizable()) << tele.name;
    }
  }
}

TEST(PipelineRobot, AllScenariosConsistentInStrictMode) {
  core::PipelineOptions options;
  options.translation.next_mode = translate::NextMode::kStrict;
  core::Pipeline pipeline(options);
  for (const auto& robot : corpus::robot_specs()) {
    const auto result = pipeline.run(robot.name, robot.requirements);
    EXPECT_TRUE(result.consistent) << robot.name;
    EXPECT_EQ(result.num_formulas(),
              static_cast<std::size_t>(robot.table_formulas))
        << robot.name;
    EXPECT_EQ(result.num_inputs(), static_cast<std::size_t>(robot.table_inputs))
        << robot.name;
    EXPECT_EQ(result.num_outputs(),
              static_cast<std::size_t>(robot.table_outputs))
        << robot.name;
  }
}

TEST(PipelineRobot, MutualExclusionViolationIsCaught) {
  // Force both robots into room 1: inconsistent with mutual exclusion.
  auto spec = corpus::robot_spec(2, 3);
  spec.requirements.push_back({"Bad-1", "Robot 1 is in room 1."});
  spec.requirements.push_back({"Bad-2", "Robot 2 is in room 1."});
  core::PipelineOptions options;
  options.translation.next_mode = translate::NextMode::kStrict;
  options.refine_on_failure = false;
  core::Pipeline pipeline(options);
  const auto result = pipeline.run("bad robots", spec.requirements);
  EXPECT_FALSE(result.consistent);
}

TEST(PipelineGenerator, GeneratedSpecsAlwaysParseAndStayConsistent) {
  // Property sweep over generator scales.
  core::Pipeline pipeline;
  const corpus::Theme theme = corpus::device_theme();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    corpus::SpecScale scale{"gen", 12, 7, 9, seed, 20, 20};
    const auto texts = corpus::generate_spec(scale, theme);
    const auto result = pipeline.run("generated", texts);
    EXPECT_TRUE(result.consistent) << "seed " << seed;
    EXPECT_EQ(result.num_formulas(), 12u);
    EXPECT_EQ(result.num_inputs(), 7u) << "seed " << seed;
    EXPECT_EQ(result.num_outputs(), 9u) << "seed " << seed;
  }
}

/// Every spec of the standing sweep, each with the Next reading it runs
/// under: the fixed difftest cases (Table I, one spec per grammar
/// production, examples/specs/**) under default and strict Next, and the
/// generated and planted-fault fuzz specs at seeds 1-8 x 50.
void for_each_sweep_spec(
    const std::function<void(translate::NextMode, const std::string&,
                             const std::vector<translate::RequirementText>&)>& visit) {
  const std::vector<batch::SpecTask> fixed =
      difftest::fixed_spec_cases(SPECCC_EXAMPLES_DIR);
  EXPECT_GE(fixed.size(), 22u + difftest::grammar_sentences().size() + 7u);
  for (const batch::SpecTask& task : fixed) {
    visit(translate::NextMode::kPaperAppendix, task.name, task.requirements);
    visit(translate::NextMode::kStrict, task.name + " (strict Next)",
          task.requirements);
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (int index = 0; index < 50; ++index) {
      const difftest::GeneratedSpec spec = difftest::generated_spec(seed, index);
      visit(translate::NextMode::kPaperAppendix, spec.name, spec.requirements);
      const auto planted = difftest::generated_planted_spec(seed, index);
      visit(translate::NextMode::kPaperAppendix, planted.name, planted.requirements);
    }
  }
}

core::PipelineOptions options_for(translate::NextMode mode) {
  core::PipelineOptions options;
  options.translation.next_mode = mode;
  return options;
}

// The translator emits only conjunctions of pattern templates
// (ltl/patterns.hpp), so the symbolic engine can decide every question the
// product asks. Pin that as an invariant: ltl::decompose_patterns accepts
// every formula the pipeline produces on the standing sweep, one sentence
// per grammar production included.
TEST(FragmentInvariant, EveryTranslatedFormulaIsAPatternInstance) {
  const core::Pipeline default_pipeline;
  const core::Pipeline strict_pipeline(options_for(translate::NextMode::kStrict));

  std::size_t formulas = 0;
  for_each_sweep_spec([&](translate::NextMode mode, const std::string& name,
                          const std::vector<translate::RequirementText>& reqs) {
    const core::Pipeline& pipeline =
        mode == translate::NextMode::kStrict ? strict_pipeline : default_pipeline;
    const core::PipelineResult result = pipeline.run(name, reqs);
    for (const auto& req : result.translation.requirements) {
      ++formulas;
      EXPECT_TRUE(speccc::ltl::decompose_patterns(req.formula).has_value())
          << name << " " << req.id << ": "
          << speccc::ltl::to_string(req.formula);
    }
  });
  // 7,679 formulas at the time of writing: the sweep must keep its reach.
  EXPECT_GE(formulas, 7600u);
}

/// The formula a pattern instance stands for (see ltl::PatternKind).
ltl::Formula instance_formula(const ltl::PatternInstance& p) {
  using K = ltl::PatternKind;
  switch (p.kind) {
    case K::kInvariant:
    case K::kLookahead:
      return ltl::always(p.guard);
    case K::kExistence:
      return ltl::eventually(p.guard);
    case K::kImplication:
      return ltl::always(ltl::implies(p.guard, ltl::next_n(p.consequent, p.delay)));
    case K::kGuardDelayed:
      return ltl::always(ltl::implies(ltl::next_n(p.guard, p.delay), p.consequent));
    case K::kResponse:
      return ltl::always(ltl::implies(p.guard, ltl::eventually(p.consequent)));
    case K::kWeakUntil:
      return ltl::always(ltl::implies(p.guard, ltl::weak_until(p.consequent, p.release)));
    case K::kStrongUntil:
      return ltl::always(ltl::implies(p.guard, ltl::until(p.consequent, p.release)));
    case K::kAlwaysOneOf:
      return ltl::always(ltl::implies(p.guard, p.consequent));
  }
  return {};
}

// Decomposition is sound: the conjunction of the instances
// ltl::decompose_patterns returns agrees with the formula on random lassos
// over its atoms, for every formula of the standing sweep and for clause
// shapes no sweep sentence reaches (G literals beside an until whose hold
// is temporal). Each lasso draws every atom with one of three biases, so
// guards fire and obligations are met as well as missed.
TEST(FragmentInvariant, DecompositionPreservesSemantics) {
  speccc::util::Rng rng(2015);
  std::size_t formulas = 0;
  const auto check = [&](const std::string& name, ltl::Formula f) {
    const auto parts = ltl::decompose_patterns(f);
    ASSERT_TRUE(parts.has_value()) << name;
    std::vector<ltl::Formula> rebuilt;
    for (const ltl::PatternInstance& p : *parts) rebuilt.push_back(instance_formula(p));
    const ltl::Formula conjunction = ltl::land(rebuilt);
    const std::set<std::string> atoms = f.atoms();
    ++formulas;
    for (int trial = 0; trial < 8; ++trial) {
      const unsigned bias = 1 + 3 * static_cast<unsigned>(rng.below(3));
      std::vector<ltl::Valuation> steps(1 + rng.below(7));
      for (ltl::Valuation& step : steps) {
        for (const std::string& atom : atoms) {
          if (rng.chance(bias, 8)) step.insert(atom);
        }
      }
      const std::size_t loop = rng.below(steps.size());
      const ltl::Lasso lasso(std::move(steps), loop);
      ASSERT_EQ(ltl::evaluate(f, lasso), ltl::evaluate(conjunction, lasso))
          << name << ": " << ltl::to_string(f) << " vs " << ltl::to_string(conjunction);
    }
  };

  const core::Pipeline default_pipeline;
  const core::Pipeline strict_pipeline(options_for(translate::NextMode::kStrict));
  for_each_sweep_spec([&](translate::NextMode mode, const std::string& name,
                          const std::vector<translate::RequirementText>& reqs) {
    const core::Pipeline& pipeline =
        mode == translate::NextMode::kStrict ? strict_pipeline : default_pipeline;
    std::optional<speccc::timeabs::Abstraction> abstraction;
    for (const auto& req : pipeline.translate(reqs, abstraction).requirements) {
      check(name + " " + req.id, req.formula);
    }
  });
  EXPECT_GE(formulas, 7600u);

  for (const char* text :
       {"G (F d -> (!p -> (F a W p)))", "G (F d && F e -> (!p -> (F a W p)))",
        "G (F d && F e && F g -> (!p -> (F a W p)))",
        "G (F d -> (!p -> ((a || F b) W p)))"}) {
    for (int repeat = 0; repeat < 32; ++repeat) check(text, ltl::parse(text));
  }
}

// Stage 1 translates once, harvesting Theta from the parse trees. It must
// equal the two-pass composition it replaced: translate with raw tick
// counts, read Theta, optimize, then translate again under the remap.
// Formulas are interned, so equal formulas are the same node.
TEST(OnePassTranslation, EqualsTheTwoPassComposition) {
  const auto lexicon = speccc::nlp::Lexicon::builtin();
  const auto dictionary = speccc::semantics::AntonymDictionary::builtin();
  std::size_t abstracted = 0;
  for_each_sweep_spec([&](translate::NextMode mode, const std::string& name,
                          const std::vector<translate::RequirementText>& reqs) {
    const core::PipelineOptions options = options_for(mode);
    const core::Pipeline pipeline(options);
    std::optional<speccc::timeabs::Abstraction> abstraction;
    const translate::TranslationResult one = pipeline.translate(reqs, abstraction);

    const translate::Translator translator(lexicon, dictionary, options.translation);
    const translate::TranslationResult raw = translator.translate(reqs);
    const std::vector<std::uint32_t> thetas = raw.thetas();
    translate::TranslationResult two = raw;
    std::optional<speccc::timeabs::Abstraction> expected;
    if (!thetas.empty()) {
      speccc::timeabs::Request request;
      request.thetas = thetas;
      request.error_budget = options.error_budget;
      expected = speccc::timeabs::optimize(request);
      std::map<unsigned, unsigned> remap;
      for (std::size_t i = 0; i < thetas.size(); ++i) {
        remap[thetas[i]] = expected->reduced[i];
      }
      two = translator.translate(reqs, [&remap](unsigned ticks) {
        const auto it = remap.find(ticks);
        return it == remap.end() ? ticks : it->second;
      });
      ++abstracted;
    }

    EXPECT_EQ(one.thetas(), thetas) << name;
    ASSERT_EQ(abstraction.has_value(), expected.has_value()) << name;
    if (expected.has_value()) {
      EXPECT_EQ(abstraction->divisor, expected->divisor) << name;
      EXPECT_EQ(abstraction->reduced, expected->reduced) << name;
      EXPECT_EQ(abstraction->errors, expected->errors) << name;
      EXPECT_EQ(abstraction->reduced_sum, expected->reduced_sum) << name;
      EXPECT_EQ(abstraction->error_sum, expected->error_sum) << name;
    }
    EXPECT_EQ(one.propositions, two.propositions) << name;
    ASSERT_EQ(one.requirements.size(), two.requirements.size()) << name;
    for (std::size_t i = 0; i < one.requirements.size(); ++i) {
      EXPECT_EQ(one.requirements[i].id, two.requirements[i].id) << name;
      EXPECT_EQ(one.requirements[i].formula, two.requirements[i].formula)
          << name << " " << one.requirements[i].id;
      EXPECT_EQ(one.requirements[i].delays, two.requirements[i].delays)
          << name << " " << one.requirements[i].id;
    }
  });
  EXPECT_GE(abstracted, 300u);
}

TEST(Report, TableRowAndDescribe) {
  core::Pipeline pipeline;
  const auto result =
      pipeline.run("CARA working mode", corpus::cara_working_mode_texts());
  const auto row = core::to_row("CARA", "0", result, 34.0);
  EXPECT_EQ(row.formulas, 30u);
  EXPECT_TRUE(row.consistent);
  EXPECT_FALSE(row.refined);

  const std::string text = core::describe(result);
  EXPECT_NE(text.find("consistent"), std::string::npos);
  EXPECT_NE(text.find("time abstraction: d = 60"), std::string::npos);
}

TEST(PipelineDiagnostics, UnsatisfiableRequirementIsFlagged) {
  core::PipelineOptions options;
  options.refine_on_failure = false;
  options.time_abstraction = false;  // keep the 13-step Next chain
  core::Pipeline pipeline(options);
  const std::vector<translate::RequirementText> spec = {
      {"ok", "If the pump is detected, the alarm is issued."},
      // "available and not available" in one clause group: unsatisfiable.
      {"bad", "The cuff is available and the cuff is not available."},
      // G (cuff && X^13 !cuff): Next chains longer than 12 are screened too.
      {"long",
       "The cuff is available and the cuff is not available in 13 seconds."},
  };
  const auto result = pipeline.run("diag", spec);
  EXPECT_EQ(
      speccc::ltl::max_next_chain(result.translation.requirements[2].formula),
      13u);
  EXPECT_FALSE(result.consistent);
  EXPECT_EQ(result.unsatisfiable_requirements,
            (std::vector<std::string>{"bad", "long"}));
}

TEST(PipelineRobot, ExtractedControllerIsExhaustivelyCorrect) {
  // The strongest end-to-end property: synthesize the rescue-robot
  // controller and model-check it against every translated requirement.
  core::PipelineOptions options;
  options.translation.next_mode = translate::NextMode::kStrict;
  options.synthesis.extract = true;
  core::Pipeline pipeline(options);
  const auto spec = corpus::robot_spec(1, 4);
  const auto result = pipeline.run(spec.name, spec.requirements);
  ASSERT_TRUE(result.consistent);
  ASSERT_TRUE(result.synthesis.controller.has_value());
  for (const auto& req : result.translation.requirements) {
    const auto check =
        speccc::synth::verify(*result.synthesis.controller, req.formula);
    EXPECT_TRUE(check.holds) << req.id << ": " << req.text;
  }
}

TEST(PipelineCancel, StageThreeProbesPollTheCancelPredicate) {
  std::ifstream in(SPECCC_EXAMPLES_DIR "/specs/faults/reservation.txt");
  ASSERT_TRUE(in);
  const auto spec = speccc::corpus::load_requirements(in);

  // Without refinement: the translation and synthesis boundaries, the
  // stage-2 engine's own polls and the screen's.
  std::size_t polls = 0;
  core::PipelineOptions options;
  options.refine_on_failure = false;
  options.cancelled = [&polls] {
    ++polls;
    return false;
  };
  ASSERT_FALSE(core::Pipeline(options).run("reservation", spec).consistent);
  const std::size_t n = polls;

  // With refinement on, the refinement boundary comes before the screen,
  // and every poll after it is inside a stage-3 question (a probe or a
  // screen question), so firing from n + 2 on must cancel the run in
  // stage 3.
  polls = 0;
  options.refine_on_failure = true;
  options.cancelled = [&polls, n] { return ++polls >= n + 2; };
  EXPECT_THROW((void)core::Pipeline(options).run("reservation", spec),
               speccc::util::CancelledError);
  EXPECT_EQ(polls, n + 2);
}

// Stage 3 is one memo entry: a warm re-run of an inconsistent spec builds
// no oracle and asks no realizability question -- neither a refinement
// probe nor a screen question -- so the cancel predicate is polled only at
// the stage boundaries, and the outcome is the cold run's.
TEST(PipelineCache, WarmStageThreeAsksNoQuestion) {
  std::ifstream in(SPECCC_EXAMPLES_DIR "/specs/faults/reservation.txt");
  ASSERT_TRUE(in);
  const auto spec = speccc::corpus::load_requirements(in);

  for (const bool refine : {true, false}) {
    SCOPED_TRACE(refine ? "refine on failure" : "screen only");
    std::size_t polls = 0;
    core::PipelineOptions options;
    options.refine_on_failure = refine;
    options.localization.max_correction_sets = 4;
    options.cache = std::make_shared<speccc::cache::Store>();
    options.cancelled = [&polls] {
      ++polls;
      return false;
    };
    const core::Pipeline pipeline(options);
    const auto cold = pipeline.run("reservation", spec);
    ASSERT_FALSE(cold.consistent);
    ASSERT_EQ(cold.refinement.has_value(), refine);

    polls = 0;
    const auto before = options.cache->stats();
    const auto warm = pipeline.run("reservation", spec);
    const auto delta = options.cache->stats().since(before);

    // Translation, synthesis and (when refining) refinement boundaries.
    EXPECT_EQ(polls, refine ? 3u : 2u);
    // The stage-2 verdict and the stage-3 entry, both hits.
    EXPECT_EQ(delta.l2_hits, 2u);
    EXPECT_EQ(delta.l2_misses, 0u);
    EXPECT_EQ(delta.l1_misses, 0u);

    EXPECT_EQ(warm.consistent, cold.consistent);
    EXPECT_EQ(warm.unsatisfiable_requirements, cold.unsatisfiable_requirements);
    ASSERT_EQ(warm.refinement.has_value(), cold.refinement.has_value());
    if (!refine) continue;
    const auto& got = *warm.refinement;
    const auto& want = *cold.refinement;
    EXPECT_FALSE(want.localization.correction_sets.empty());
    EXPECT_EQ(got.consistent, want.consistent);
    EXPECT_EQ(got.adjustment.has_value(), want.adjustment.has_value());
    EXPECT_EQ(got.partition.inputs, want.partition.inputs);
    EXPECT_EQ(got.partition.outputs, want.partition.outputs);
    EXPECT_EQ(got.localization.core, want.localization.core);
    EXPECT_EQ(got.localization.correction_sets,
              want.localization.correction_sets);
    EXPECT_EQ(got.localization.related, want.localization.related);
    EXPECT_EQ(got.checks, want.checks);
  }
}

TEST(PipelineCancel, SatisfiabilityScreenPollsTheCancelPredicate) {
  const std::vector<translate::RequirementText> spec = {
      {"ok", "If the pump is detected, the alarm is issued."},
      {"bad", "The cuff is available and the cuff is not available."},
  };
  core::PipelineOptions options;
  options.refine_on_failure = false;  // and no cache
  const auto reference = core::Pipeline(options).run("screen", spec);
  ASSERT_FALSE(reference.consistent);

  // D: the polls of the run's stage-2 question on its own.
  std::size_t d = 0;
  speccc::synth::SynthesisOptions counted = options.synthesis;
  counted.cancelled = [&d] {
    ++d;
    return false;
  };
  (void)speccc::synth::synthesize(reference.translation.formulas(),
                                  reference.partition.signature(), counted);

  // The translation and synthesis boundaries plus stage 2 take 2 + D
  // polls; the screen's questions poll after them.
  std::size_t polls = 0;
  options.cancelled = [&polls] {
    ++polls;
    return false;
  };
  ASSERT_FALSE(core::Pipeline(options).run("screen", spec).consistent);
  EXPECT_GT(polls, 2 + d);

  polls = 0;
  options.cancelled = [&polls, d] { return ++polls >= 2 + d + 1; };
  EXPECT_THROW((void)core::Pipeline(options).run("screen", spec),
               speccc::util::CancelledError);
  EXPECT_EQ(polls, 2 + d + 1);
}

// "in 3000000 seconds" beside "in 7 seconds" abstracts to d = 7 and leaves
// a 428,571-deep Next chain. Compiling its monitor must stay linear in the
// chain (each state bit's update is stored by position, never searched
// for), so the run decides well inside a 10 s cancel.
TEST(PipelineCancel, DeepNextChainDecidesInsideTenSeconds) {
  const std::vector<translate::RequirementText> spec = {
      {"C1",
       "If the order button is pressed, the confirmation message is "
       "displayed in 7 seconds."},
      {"C2",
       "If the payment request is received, the order record is stored in "
       "3000000 seconds."},
  };
  core::PipelineOptions options;
  const speccc::util::Stopwatch clock;
  options.cancelled = [clock] { return clock.seconds() > 10.0; };
  const auto result = core::Pipeline(options).run("deep chain", spec);
  EXPECT_TRUE(result.consistent);
  EXPECT_EQ(result.synthesis.state_bits, 428'572u);
}

}  // namespace
