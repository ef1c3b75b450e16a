// The decision substrate: parsing the three choices, core::decide's
// routing, cancellation and abstention completion -- and the determinism
// contract, proved the strong way: every substrate must produce
// byte-identical canonical batch output to auto, over the paper's Table I
// corpus for every jobs count and cache mode, and over the example specs.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "batch/batch.hpp"
#include "batch/corpus_tasks.hpp"
#include "cache/store.hpp"
#include "core/substrate.hpp"
#include "corpus/loaders.hpp"
#include "ltl/parser.hpp"
#include "util/diagnostics.hpp"

namespace batch = speccc::batch;
namespace fs = std::filesystem;
namespace core = speccc::core;
namespace ltl = speccc::ltl;
namespace synth = speccc::synth;
namespace util = speccc::util;

using core::Substrate;
using synth::Realizability;

namespace {

// ---------------------------------------------------------------------------
// Parsing

TEST(SubstrateSpec, ParsesExactlyTheThreeSubstrates) {
  for (const Substrate substrate :
       {Substrate::kAuto, Substrate::kBounded, Substrate::kSymbolic}) {
    EXPECT_EQ(core::parse_substrate(core::substrate_name(substrate)),
              substrate);
  }
  EXPECT_EQ(core::substrate_name(Substrate::kAuto), "auto");
  EXPECT_EQ(core::substrate_name(Substrate::kBounded), "bounded");
  EXPECT_EQ(core::substrate_name(Substrate::kSymbolic), "symbolic");
}

TEST(SubstrateSpec, RejectsMalformedSpecs) {
  for (const char* text :
       {"", "sat", "Auto", "tableau", "race:bounded,symbolic", "race:"}) {
    try {
      (void)core::parse_substrate(text);
      FAIL() << "accepted \"" << text << "\"";
    } catch (const util::InvalidInputError& e) {
      EXPECT_NE(std::string(e.what()).find("auto, bounded, symbolic"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// core::decide

TEST(AutoSubstrate, CancelFiresInsideEitherEngine) {
  // The run's cancel predicate reaches the engine auto picks: a batch
  // budget or serve deadline under the default substrate can stop a
  // fixpoint or a k-escalation, not only a stage boundary.
  const synth::IoSignature signature{{"a"}, {"x"}};
  const core::CancelFn always = [] { return true; };
  EXPECT_THROW((void)core::decide(Substrate::kAuto, {ltl::parse("G (a -> x)")},
                                  signature, {}, always),
               util::CancelledError);
  EXPECT_THROW(
      (void)core::decide(Substrate::kAuto,
                         {ltl::parse("G (a -> F (x && X x))")}, signature, {},
                         always),
      util::CancelledError);
}

TEST(Decide, AutoCompletesAbstentionsAndDefiniteVerdictsStand) {
  const synth::IoSignature signature{{"p"}, {"q"}};
  const std::vector<ltl::Formula> sat = {ltl::parse("G (p -> F q)")};
  const std::vector<ltl::Formula> unsat = {ltl::parse("G q"),
                                           ltl::parse("G !q")};

  // Bounded under caps too small to decide abstains; auto completes the
  // abstention and the result names the engine that decided.
  synth::SynthesisOptions capped;
  capped.bounded.max_k = 0;
  capped.bounded.max_ucw_states = 1;
  const auto completed =
      core::decide(Substrate::kBounded, sat, signature, capped, {});
  EXPECT_EQ(completed.verdict, Realizability::kRealizable);
  EXPECT_EQ(completed.substrate_used, "symbolic");

  // A definite verdict is never re-decided.
  const synth::SynthesisOptions options;
  const auto realizable =
      core::decide(Substrate::kBounded, sat, signature, options, {});
  EXPECT_EQ(realizable.verdict, Realizability::kRealizable);
  EXPECT_EQ(realizable.substrate_used, "bounded");
  const auto unrealizable =
      core::decide(Substrate::kBounded, unsat, signature, options, {});
  EXPECT_EQ(unrealizable.verdict, Realizability::kUnrealizable);
  EXPECT_EQ(unrealizable.substrate_used, "bounded");
}

TEST(Decide, SymbolicOutsideItsFragmentIsInvalidInput) {
  // Symbolic is inapplicable, not abstaining, outside its pattern
  // fragment: asking it there is an input error, never a verdict.
  const synth::IoSignature signature{{"a"}, {"x"}};
  EXPECT_THROW((void)core::decide(Substrate::kSymbolic,
                                  {ltl::parse("G (a -> F (x && X x))")},
                                  signature, {}, {}),
               util::InvalidInputError);
}

// ---------------------------------------------------------------------------
// The determinism contract: every substrate == auto, byte for byte

TEST(SubstrateDeterminism, SymbolicMatchesAutoOnTableOneForAllJobsAndCaches) {
  const std::vector<batch::SpecTask> tasks = batch::table1_tasks();
  ASSERT_EQ(tasks.size(), 22u);

  batch::BatchOptions baseline_options;
  baseline_options.jobs = 1;
  const std::string baseline =
      batch::canonical(batch::check(tasks, baseline_options));

  for (const int jobs : {1, 4, 8}) {
    for (const bool cache_on : {false, true}) {
      batch::BatchOptions options;
      options.jobs = jobs;
      options.pipeline.substrate = Substrate::kSymbolic;
      if (cache_on) {
        options.pipeline.cache = std::make_shared<speccc::cache::Store>(
            speccc::cache::StoreOptions{});
      }
      EXPECT_EQ(batch::canonical(batch::check(tasks, options)), baseline)
          << "symbolic canonical output diverged at jobs=" << jobs
          << " cache=" << (cache_on ? "on" : "off");
    }
  }
}

TEST(SubstrateDeterminism, CappedBoundedMatchesAutoOnExampleSpecs) {
  // Bounded capped at k = 0 and one UCW state abstains on every
  // satisfiable question -- stage 2, the screen and each stage-3 probe;
  // auto completes each abstention, so the run is byte-identical to the
  // default -- with diagnosis on.
  for (const char* dir : {"specs", "specs/faults"}) {
    std::vector<fs::path> files;
    for (const auto& entry :
         fs::directory_iterator(fs::path(SPECCC_EXAMPLES_DIR) / dir)) {
      if (entry.path().extension() == ".txt") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty()) << dir;
    std::vector<batch::SpecTask> tasks;
    for (const fs::path& file : files) {
      std::ifstream in(file);
      tasks.push_back({file.string(), speccc::corpus::load_requirements(in)});
    }

    batch::BatchOptions options;
    options.jobs = 1;
    options.pipeline.localization.max_correction_sets = 4;
    const std::string baseline = batch::canonical(batch::check(tasks, options));
    options.pipeline.substrate = Substrate::kBounded;
    options.pipeline.synthesis.bounded.max_k = 0;
    options.pipeline.synthesis.bounded.max_ucw_states = 1;
    EXPECT_EQ(batch::canonical(batch::check(tasks, options)), baseline) << dir;
  }
}

}  // namespace
