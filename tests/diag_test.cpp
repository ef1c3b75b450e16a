// Tests for the diagnosis engine (diag/diag.hpp): deletion-based MUS
// shrinking and the rotation/grow MCS enumeration, over two oracles -- a
// test-only truth-table oracle over group CNF instances (real cores,
// brute-force verified) and RealizabilityOracle (planted-fault specs where
// the ground-truth MUSes are known by construction) -- plus pinned
// end-to-end pipeline diagnoses of the hand-written multi-fault specs in
// examples/specs/faults/, and the stage-3 identity slice: the pipeline's
// component-by-component stage 3 against the whole-set reference of
// stage3_reference.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "corpus/loaders.hpp"
#include "diag/diag.hpp"
#include "difftest/harness.hpp"
#include "difftest/oracle.hpp"
#include "ltl/parser.hpp"
#include "stage3_reference.hpp"
#include "util/diagnostics.hpp"

namespace diag = speccc::diag;
namespace difftest = speccc::difftest;

namespace {

using Index = std::size_t;
using Subset = std::vector<Index>;

Subset without(const Subset& set, Index element) {
  Subset out;
  for (Index e : set) {
    if (e != element) out.push_back(e);
  }
  return out;
}

Subset universe_of(std::size_t n) {
  Subset out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

// Group CNF instances: groups of clauses, each switched on or off as a
// whole -- the classic MUS-extraction shape. Small enough (at most 9
// variables) to decide by evaluating the whole truth table.
struct Lit {
  int var;
  bool positive;
};
using Clause = std::vector<Lit>;
using Groups = std::vector<std::vector<Clause>>;

constexpr int kMaxVars = 9;

Lit lit(int var, bool positive) { return Lit{var, positive}; }

// Brute-force consistency: some assignment of the num_vars variables
// satisfies every clause of every chosen group.
bool brute_force_consistent(const Groups& groups, int num_vars,
                            const Subset& subset) {
  speccc_check(num_vars <= kMaxVars, "truth tables stay small");
  for (unsigned assignment = 0; assignment < (1u << num_vars); ++assignment) {
    const auto holds = [assignment](const Lit& l) {
      return (((assignment >> l.var) & 1u) != 0) == l.positive;
    };
    const auto satisfied = [&holds](const Clause& clause) {
      return std::any_of(clause.begin(), clause.end(), holds);
    };
    const bool all = std::all_of(subset.begin(), subset.end(), [&](Index g) {
      return std::all_of(groups[g].begin(), groups[g].end(), satisfied);
    });
    if (all) return true;
  }
  return false;
}

// Test-only CoreOracle with real cores: an inconsistent query is answered
// with a MUS of it, found by brute-force deletion (drop each element in
// turn, keep it dropped while the rest stays inconsistent). The shrinker
// can then jump past every innocent group in one step.
diag::CoreOracle truth_table_oracle(Groups groups, int num_vars) {
  return [groups = std::move(groups), num_vars](
             const Subset& subset) -> std::optional<Subset> {
    if (brute_force_consistent(groups, num_vars, subset)) return std::nullopt;
    Subset core = subset;
    for (std::size_t k = 0; k < core.size();) {
      Subset trial = core;
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(k));
      if (brute_force_consistent(groups, num_vars, trial)) {
        ++k;
      } else {
        core = std::move(trial);
      }
    }
    return core;
  };
}

// refine::refine's diagnosis sequence over any CoreOracle: one query on
// the universe {0, ..., n-1}, then MUS shrinking and MCS enumeration when
// it is inconsistent.
struct Diagnosis {
  Subset mus;  // empty iff the universe is consistent
  std::vector<Subset> correction_sets;
  std::size_t checks = 0;  // oracle calls

  [[nodiscard]] bool consistent() const { return mus.empty(); }
};

Diagnosis diagnose(std::size_t n, const diag::CoreOracle& oracle,
                   std::size_t max_correction_sets) {
  Diagnosis d;
  const Subset universe = universe_of(n);
  ++d.checks;
  const auto core = oracle(universe);
  if (!core) return d;
  d.mus = diag::shrink_mus(*core, oracle, d.checks);
  d.correction_sets =
      diag::correction_sets(universe, oracle, max_correction_sets, d.checks);
  return d;
}

TEST(Diagnose, ConsistentGroupsYieldAnEmptyDiagnosis) {
  // x, y, x || y: jointly satisfiable.
  const Groups groups{{{lit(0, true)}}, {{lit(1, true)}},
                      {{lit(0, true), lit(1, true)}}};
  const auto oracle = truth_table_oracle(groups, 2);
  const Diagnosis d = diagnose(groups.size(), oracle, 4);
  EXPECT_TRUE(d.consistent());
  EXPECT_TRUE(d.mus.empty());
  EXPECT_TRUE(d.correction_sets.empty());
  EXPECT_EQ(d.checks, 1u);  // one universe query settles it
}

TEST(Diagnose, PinsTheContradictoryGroupPair) {
  // Groups: {x}, {!x}, {y}, {x || y}. The only MUS is {0, 1}; the two
  // repairs are dropping either unit.
  const Groups groups{{{lit(0, true)}},
                      {{lit(0, false)}},
                      {{lit(1, true)}},
                      {{lit(0, true), lit(1, true)}}};
  const auto oracle = truth_table_oracle(groups, 2);
  const Diagnosis d = diagnose(groups.size(), oracle, 4);
  EXPECT_FALSE(d.consistent());
  EXPECT_EQ(d.mus, (Subset{0, 1}));
  EXPECT_EQ(d.correction_sets,
            (std::vector<Subset>{{0}, {1}}));
}

TEST(Diagnose, CoreJumpsPruneInnocentGroups) {
  // Eight innocent unit groups around one contradiction: the oracle's
  // core should let the shrinker jump straight past the bystanders
  // instead of deleting them one by one.
  Groups groups;
  for (int v = 1; v <= 8; ++v) groups.push_back({{lit(v, true)}});
  groups.push_back({{lit(0, true)}});
  groups.push_back({{lit(0, false)}});
  const std::size_t num_groups = groups.size();
  const auto oracle = truth_table_oracle(std::move(groups), kMaxVars);
  // No correction sets: measure the MUS extraction alone.
  const Diagnosis d = diagnose(num_groups, oracle, 0);
  EXPECT_EQ(d.mus, (Subset{8, 9}));
  // 1 universe query + at most 2 per MUS element; without core jumps the
  // deletion loop alone would need 10+ calls.
  EXPECT_LE(d.checks, 1u + 2u * d.mus.size() + 2u);
}

TEST(Diagnose, RandomGroupInstancesSatisfyTheMusAndMcsProperties) {
  // Random group CNF sweep, every diagnosis verified against the
  // brute-force consistency test: the MUS is inconsistent and minimal,
  // every MCS's removal restores consistency and is minimal.
  int inconsistent_seen = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    speccc::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL);
    const int num_vars = rng.range(3, 5);
    const int num_groups = rng.range(3, 8);
    Groups groups;
    for (int g = 0; g < num_groups; ++g) {
      std::vector<Clause> group;
      const int num_clauses = rng.range(1, 2);
      for (int c = 0; c < num_clauses; ++c) {
        Clause clause;
        const int width = rng.range(1, 3);
        for (int k = 0; k < width; ++k) {
          clause.push_back(lit(rng.range(0, num_vars - 1), rng.chance(1, 2)));
        }
        group.push_back(std::move(clause));
      }
      groups.push_back(std::move(group));
    }

    const auto oracle = truth_table_oracle(groups, num_vars);
    const Diagnosis d = diagnose(groups.size(), oracle, 3);
    const Subset universe = universe_of(groups.size());

    if (d.consistent()) {
      EXPECT_TRUE(brute_force_consistent(groups, num_vars, universe))
          << "seed " << seed;
      continue;
    }
    ++inconsistent_seen;
    EXPECT_FALSE(brute_force_consistent(groups, num_vars, d.mus))
        << "seed " << seed << ": reported MUS is consistent";
    for (Index e : d.mus) {
      EXPECT_TRUE(brute_force_consistent(groups, num_vars, without(d.mus, e)))
          << "seed " << seed << ": MUS not minimal at element " << e;
    }
    EXPECT_FALSE(d.correction_sets.empty()) << "seed " << seed;
    for (const Subset& mcs : d.correction_sets) {
      Subset rest = universe;
      for (Index e : mcs) rest = without(rest, e);
      EXPECT_TRUE(brute_force_consistent(groups, num_vars, rest))
          << "seed " << seed << ": removing the MCS does not repair";
      for (Index e : mcs) {
        // Minimality: putting any MCS element back breaks it again.
        Subset back = rest;
        back.insert(std::lower_bound(back.begin(), back.end(), e), e);
        EXPECT_FALSE(brute_force_consistent(groups, num_vars, back))
            << "seed " << seed << ": MCS not minimal at element " << e;
      }
    }
  }
  // The sweep must actually exercise the inconsistent path to have teeth.
  EXPECT_GE(inconsistent_seen, 5);
}

TEST(SynthesisOracle, PlantedFaultSpecsShrinkToExactlyOnePlantedFault) {
  // Ground-truth workload: every planted fault uses fresh vocabulary
  // disjoint from the base spec and the other faults, so each MUS of the
  // spec is exactly one planted index set (difftest/random.hpp). The
  // heavy sweep lives in difftest_test; this is the fast tier-1 slice.
  for (const auto& [seed, index] : {std::pair<std::uint64_t, int>{1, 0},
                                    {1, 1},
                                    {2, 0},
                                    {2, 1}}) {
    const difftest::PlantedSpec spec =
        difftest::generated_planted_spec(seed, index);
    ASSERT_GE(spec.faults.size(), 2u);
    const difftest::SpecCase sc = difftest::build_spec_case(spec.requirements);
    diag::RealizabilityOracle realizability(sc.requirements);
    const auto oracle = realizability.under(sc.signature);

    const Subset universe = universe_of(sc.requirements.size());
    const auto full = oracle(universe);
    ASSERT_TRUE(full.has_value())
        << spec.name << ": planted spec not inconsistent";

    std::size_t checks = 0;
    const Subset mus = diag::shrink_mus(*full, oracle, checks);
    EXPECT_NE(std::find(spec.faults.begin(), spec.faults.end(), mus),
              spec.faults.end())
        << spec.name << ": MUS is not a planted fault";
    for (Index e : mus) {
      EXPECT_FALSE(oracle(without(mus, e)).has_value())
          << spec.name << ": MUS not minimal at element " << e;
    }
  }
}

TEST(SynthesisOracle, CorrectionSetRemovalRestoresConsistency) {
  const difftest::PlantedSpec spec = difftest::generated_planted_spec(3, 0);
  const difftest::SpecCase sc = difftest::build_spec_case(spec.requirements);
  diag::RealizabilityOracle realizability(sc.requirements);
  const auto oracle = realizability.under(sc.signature);
  const Subset universe = universe_of(sc.requirements.size());
  ASSERT_TRUE(oracle(universe).has_value());

  std::size_t checks = 0;
  const auto sets = diag::correction_sets(universe, oracle, 2, checks);
  ASSERT_FALSE(sets.empty());
  for (const Subset& mcs : sets) {
    Subset rest = universe;
    for (Index e : mcs) rest = without(rest, e);
    EXPECT_FALSE(oracle(rest).has_value())
        << spec.name << ": MCS removal must restore consistency";
  }
}

// ---------------------------------------------------------------------------
// RealizabilityOracle: component split, cores, memo, screen shortcut.

std::vector<speccc::ltl::Formula> parse_all(
    const std::vector<std::string>& texts) {
  std::vector<speccc::ltl::Formula> out;
  for (const auto& t : texts) out.push_back(speccc::ltl::parse(t));
  return out;
}

TEST(RealizabilityOracle, CoreIsTheUnionOfTheUnrealizableComponents) {
  // Components over outputs: {0}, {1, 3} (y), {2} and {4, 5} (z); a and b
  // are inputs and join nothing. {1, 3} and {4, 5} are unrealizable.
  diag::RealizabilityOracle oracle(parse_all({
      "G (a -> x)",
      "G (b -> y)",
      "G (a -> w)",
      "G (b -> !y)",
      "G z",
      "G (a -> !z)",
  }));
  const speccc::synth::IoSignature sig{{"a", "b"}, {"w", "x", "y", "z"}};
  EXPECT_EQ(oracle.core(universe_of(6), sig), (Subset{1, 3, 4, 5}));
  EXPECT_EQ(oracle.syntheses(), 4u);
  EXPECT_EQ(oracle.core({0, 2, 5}, sig), std::nullopt);
  EXPECT_EQ(oracle.core({}, sig), std::nullopt);
  // {1, 3} is a memo hit; {5} alone is realizable.
  EXPECT_EQ(oracle.core({1, 3, 5}, sig), (Subset{1, 3}));
}

TEST(RealizabilityOracle, AFlipReDecidesOnlyTheComponentsItTouches) {
  diag::RealizabilityOracle oracle(parse_all({
      "G (v -> x)",
      "G (v -> y)",
      "G (b -> !x)",
      "G (c -> z)",
  }));
  ASSERT_TRUE(oracle.core(universe_of(4), {{"b", "c", "v"}, {"x", "y", "z"}}));
  const std::size_t before = oracle.syntheses();
  // v as an output merges {0, 2} and {1} into one component; {3} keeps
  // its signature and is answered by the memo.
  EXPECT_EQ(oracle.core(universe_of(4), {{"b", "c"}, {"v", "x", "y", "z"}}),
            std::nullopt);
  EXPECT_EQ(oracle.syntheses(), before + 1);
  // The same question again asks nothing.
  EXPECT_EQ(oracle.core(universe_of(4), {{"b", "c"}, {"v", "x", "y", "z"}}),
            std::nullopt);
  EXPECT_EQ(oracle.syntheses(), before + 1);
}

TEST(RealizabilityOracle, RealizableComponentsSpareTheScreen) {
  // Components: {0}, {1, 4} (y) and {2, 3} (z); only {0} is realizable.
  diag::RealizabilityOracle oracle(parse_all({
      "G (a -> x)",
      "G (y && !y)",
      "G (a -> z)",
      "G (a -> !z)",
      "G (a -> y)",
  }));
  ASSERT_EQ(oracle.core(universe_of(5), {{"a"}, {"x", "y", "z"}}),
            (Subset{1, 2, 3, 4}));
  const std::size_t before = oracle.syntheses();
  EXPECT_TRUE(oracle.satisfiable(0));  // its component was realizable
  EXPECT_EQ(oracle.syntheses(), before);
  // Members of unrealizable components are asked one by one.
  EXPECT_FALSE(oracle.satisfiable(1));
  EXPECT_TRUE(oracle.satisfiable(2));
  EXPECT_TRUE(oracle.satisfiable(3));
  EXPECT_TRUE(oracle.satisfiable(4));
  EXPECT_EQ(oracle.syntheses(), before + 4);
}

TEST(RealizabilityOracle, PollsCancellationBeforeEachDecision) {
  speccc::synth::SynthesisOptions options;
  bool stop = false;
  options.cancelled = [&stop] { return stop; };
  diag::RealizabilityOracle oracle(parse_all({"G (a -> x)", "G (a -> y)"}),
                                   options);
  const speccc::synth::IoSignature sig{{"a"}, {"x", "y"}};
  ASSERT_EQ(oracle.core({0, 1}, sig), std::nullopt);
  stop = true;
  // Memo hits decide nothing and so never poll; a new component does.
  EXPECT_EQ(oracle.core({0, 1}, sig), std::nullopt);
  EXPECT_THROW((void)oracle.core({0, 1}, {{}, {"a", "x", "y"}}),
               speccc::util::CancelledError);
}

TEST(RealizabilityOracle, RejectsAPropositionMissingFromTheSignature) {
  diag::RealizabilityOracle oracle(parse_all({"G (a -> x)"}));
  EXPECT_THROW((void)oracle.core({0}, {{"a"}, {}}),
               speccc::util::InternalError);
}

// ---------------------------------------------------------------------------
// Pinned end-to-end diagnoses of the hand-written multi-fault specs. The
// sentences mirror examples/specs/faults/*.txt (which scripts/check.sh
// smokes through the CLI); the pins here are the library-level contract.

std::vector<std::string> ids_of(const speccc::core::PipelineResult& result,
                                const Subset& indices) {
  std::vector<std::string> out;
  for (Index i : indices) {
    out.push_back(result.translation.requirements.at(i).id);
  }
  return out;
}

speccc::core::PipelineResult diagnose_spec(const std::string& name,
                                           const std::string& document) {
  speccc::core::PipelineOptions options;
  options.localization.max_correction_sets = 4;
  const speccc::core::Pipeline pipeline(options);
  std::istringstream in(document);
  return pipeline.run(name, speccc::corpus::load_requirements(in));
}

TEST(PipelineDiagnosis, PinsThePumpInterlockDiagnosis) {
  const auto result = diagnose_spec("pump_interlock",
      "R1: If the start button is pressed, the pump is activated.\n"
      "R2: If the pressure sensor is detected, the alarm is raised.\n"
      "R3: If the start button is pressed, the status light is updated.\n"
      "R4: If the leak detector is detected, the drain valve is activated.\n"
      "R5: If the pressure sensor is detected, the alarm is not raised.\n"
      "R6: When the mode button is pressed, eventually the monitor light is "
      "activated.\n"
      "R7: If the leak detector is detected, the drain valve is not "
      "activated.\n");
  EXPECT_FALSE(result.consistent);
  ASSERT_TRUE(result.refinement.has_value());
  const auto& loc = result.refinement->localization;
  EXPECT_EQ(ids_of(result, loc.core),
            (std::vector<std::string>{"R4", "R7"}));
  ASSERT_EQ(loc.correction_sets.size(), 4u);
  EXPECT_EQ(ids_of(result, loc.correction_sets[0]),
            (std::vector<std::string>{"R2", "R4"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[1]),
            (std::vector<std::string>{"R2", "R7"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[2]),
            (std::vector<std::string>{"R4", "R5"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[3]),
            (std::vector<std::string>{"R5", "R7"}));
}

TEST(PipelineDiagnosis, PinsTheReservationDiagnosis) {
  // Fault A is the 3-sentence chain R1+R2+R3 (pairwise consistent,
  // jointly inconsistent); fault B the direct contradiction R4 vs R5.
  const auto result = diagnose_spec("reservation",
      "R1: If the booking request is received, the ticket is issued.\n"
      "R2: If the ticket is issued, the confirmation message is sent.\n"
      "R3: If the booking request is received, the confirmation message is "
      "not sent.\n"
      "R4: If the cancel button is pressed, the refund notice is displayed.\n"
      "R5: If the cancel button is pressed, the refund notice is not "
      "displayed.\n"
      "R6: If the payment card is detected, the receipt record is stored.\n");
  EXPECT_FALSE(result.consistent);
  ASSERT_TRUE(result.refinement.has_value());
  const auto& loc = result.refinement->localization;
  EXPECT_EQ(ids_of(result, loc.core),
            (std::vector<std::string>{"R4", "R5"}));
  ASSERT_EQ(loc.correction_sets.size(), 4u);
  EXPECT_EQ(ids_of(result, loc.correction_sets[0]),
            (std::vector<std::string>{"R1", "R5"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[1]),
            (std::vector<std::string>{"R2", "R5"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[2]),
            (std::vector<std::string>{"R3", "R4"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[3]),
            (std::vector<std::string>{"R3", "R5"}));
}

TEST(PipelineDiagnosis, PinsTheVentMonitorDiagnosis) {
  const auto result = diagnose_spec("vent_monitor",
      "R1: If the heat sensor is detected, the cooling fan is activated.\n"
      "R2: If the heat sensor is detected, the cooling fan is not "
      "activated.\n"
      "R3: If the test button is pressed, the status report is displayed in "
      "10 seconds.\n"
      "R4: When the power switch is pressed, eventually the standby light is "
      "activated.\n"
      "R5: If the smoke detector is detected, the vent flap is activated.\n"
      "R6: If the smoke detector is detected, the vent flap is not "
      "activated.\n");
  EXPECT_FALSE(result.consistent);
  ASSERT_TRUE(result.refinement.has_value());
  const auto& loc = result.refinement->localization;
  EXPECT_EQ(ids_of(result, loc.core),
            (std::vector<std::string>{"R5", "R6"}));
  // The rotation search found three distinct repairs here (cap is 4).
  ASSERT_EQ(loc.correction_sets.size(), 3u);
  EXPECT_EQ(ids_of(result, loc.correction_sets[0]),
            (std::vector<std::string>{"R1", "R6"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[1]),
            (std::vector<std::string>{"R2", "R5"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[2]),
            (std::vector<std::string>{"R2", "R6"}));
}

TEST(PipelineDiagnosis, PinsTheInfusionPumpDiagnosis) {
  // Fault A is R2 alone (unsatisfiable, so the screen flags it); fault B
  // the direct contradiction R3 vs R5.
  const auto result = diagnose_spec("infusion_pump",
      "R1: If the start button is pressed, the infusion pump is activated.\n"
      "R2: The occlusion alarm is raised and the occlusion alarm is not "
      "raised.\n"
      "R3: If the door sensor is detected, the status light is updated in 10 "
      "seconds.\n"
      "R4: When the mode button is pressed, eventually the monitor light is "
      "activated.\n"
      "R5: If the door sensor is detected, the status light is not updated "
      "in 10 seconds.\n");
  EXPECT_FALSE(result.consistent);
  EXPECT_EQ(result.unsatisfiable_requirements,
            (std::vector<std::string>{"R2"}));
  ASSERT_TRUE(result.refinement.has_value());
  const auto& loc = result.refinement->localization;
  EXPECT_EQ(ids_of(result, loc.core),
            (std::vector<std::string>{"R3", "R5"}));
  ASSERT_EQ(loc.correction_sets.size(), 2u);
  EXPECT_EQ(ids_of(result, loc.correction_sets[0]),
            (std::vector<std::string>{"R2", "R3"}));
  EXPECT_EQ(ids_of(result, loc.correction_sets[1]),
            (std::vector<std::string>{"R2", "R5"}));
}

// The fast slice of the stage-3 identity sweep (the seeds 1-8 sweep is in
// difftest_test): the pipeline's MUS, related set, adjustment, correction
// sets (cap 4) and screen equal those of the whole-set reference.
TEST(PipelineDiagnosis, StageThreeMatchesTheWholeSetReference) {
  std::size_t unsat_seen = 0;
  for (const char* name :
       {"infusion_pump", "pump_interlock", "reservation", "vent_monitor"}) {
    std::ifstream in(std::string(SPECCC_EXAMPLES_DIR "/specs/faults/") +
                     name + ".txt");
    ASSERT_TRUE(in) << name;
    speccc::core::PipelineOptions options;
    options.localization.max_correction_sets = 4;
    const auto result = speccc::core::Pipeline(options).run(
        name, speccc::corpus::load_requirements(in));
    EXPECT_EQ(stage3_reference::mismatch(result, 4), "") << name;
    unsat_seen += result.unsatisfiable_requirements.size();
  }
  EXPECT_GE(unsat_seen, 1u);  // infusion_pump's R2
  for (const std::uint64_t seed : {1u, 2u}) {
    for (int index = 0; index < 6; ++index) {
      const difftest::PlantedSpec spec =
          difftest::generated_planted_spec(seed, index);
      speccc::core::PipelineOptions options;
      options.localization.max_correction_sets = 4;
      const auto result =
          speccc::core::Pipeline(options).run(spec.name, spec.requirements);
      EXPECT_EQ(stage3_reference::mismatch(result, 4), "") << spec.name;
    }
  }
}

TEST(PipelineDiagnosis, ConsistentSpecCarriesNoDiagnosis) {
  const auto result = diagnose_spec("all_fine",
      "R1: If the start button is pressed, the pump is activated.\n"
      "R2: If the stop button is pressed, the status light is updated.\n");
  EXPECT_TRUE(result.consistent);
  EXPECT_FALSE(result.refinement.has_value());
}

}  // namespace
