// The differential fuzzing harness: seeded case generation, oracle
// checking, and shrinking, shared by tests/difftest_test.cpp and the
// standalone speccc_fuzz driver.
//
// Reproducibility contract: every case's inputs derive from
// case_seed(master_seed, kind, index) alone, so a failure report's
// `reproduce` field ("speccc_fuzz --seed S --formula-case K") replays
// exactly one case -- generation, oracle randomness, and shrinking
// included -- without re-running the cases before it. Fixed cases (the
// corpus specifications of RunOptions::fixed_specs) need no generation;
// their oracle randomness derives from the seed and their position.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "batch/batch.hpp"
#include "difftest/oracle.hpp"
#include "difftest/random.hpp"

namespace speccc::difftest {

struct RunOptions {
  std::uint64_t seed = 1;
  int formula_cases = 500;
  int spec_cases = 50;
  /// Fixed specifications checked on every seed, before the generated
  /// spec cases (see fixed_spec_cases).
  std::vector<batch::SpecTask> fixed_specs;
  FormulaConfig formula;
  SpecConfig spec;
  OracleOptions oracle;
  bool shrink = true;
  /// Stop after this many failures (shrinking each is expensive).
  int max_failures = 10;
  /// Run only one case of the given index; -1 means all. When either is
  /// set, nothing else runs (the other kind's cases included).
  int only_formula_case = -1;
  int only_spec_case = -1;
  /// Optional progress narration (the fuzz driver passes std::cerr).
  std::ostream* progress = nullptr;
};

struct CaseFailure {
  CaseKind kind = CaseKind::kFormula;
  int index = 0;
  std::string name;            // kFixed: the specification's name
  std::uint64_t case_seed = 0;
  std::string detail;          // oracle message for the original case
  std::string reproduce;       // one command to replay exactly this case
  ltl::Formula shrunk;                    // kFormula: minimized formula
  std::vector<ltl::Formula> shrunk_spec;  // kSpec: minimized requirements
  std::string shrunk_detail;   // oracle message for the minimized case
};

struct RunReport {
  int formulas_checked = 0;
  /// Formula cases abandoned because the tableau outgrew
  /// OracleOptions::max_tableau_nodes (reported, never silent).
  int formulas_skipped = 0;
  int specs_checked = 0;
  int fixed_checked = 0;
  /// Bounded-engine outcomes per spec case, fixed and generated: only a
  /// definite verdict cross-checks the symbolic one.
  struct BoundedCounts {
    int definite = 0;
    int unknown = 0;    // kUnknown at the oracle's caps
    int abstained = 0;  // past the alphabet cap
  };
  BoundedCounts fixed_bounded;
  BoundedCounts specs_bounded;
  std::vector<CaseFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// One sentence per production of docs/SPEC_LANGUAGE.md: the five
/// predicate forms, every subordinator and modifier, until and trailing
/// before, existence, response, delayed (seconds and minutes) and next
/// shapes, modals and negation, antonym pairs, the pronoun, coordinated
/// subjects, clauses and nested conditions, the worked examples,
/// coordinated main clauses or conditions mixing plain, timed and eventual
/// clauses, and future tense or deadlines under until and eventually in a
/// condition.
[[nodiscard]] const std::vector<std::string>& grammar_sentences();

/// The fixed cases of the spec lane: the 22 Table I rows, one
/// specification per grammar sentence ("grammar/<n>"), then every *.txt
/// under `examples_dir`/specs, recursively, in path order (the example
/// specifications and their faults; none when the directory is missing).
[[nodiscard]] std::vector<batch::SpecTask> fixed_spec_cases(
    const std::string& examples_dir);

/// Run the harness: formula cases first, then the fixed specs, then the
/// generated spec cases.
[[nodiscard]] RunReport run(const RunOptions& options);

/// Human-readable report: every failure with its minimized form and
/// reproduction command.
[[nodiscard]] std::string describe(const RunReport& report);

}  // namespace speccc::difftest
