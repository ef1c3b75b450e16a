// speccc_fuzz: the standing differential oracle: the product's symbolic
// BDD game against the reference engines (GPVW tableau, bounded synthesis,
// controller model checking).
//
// Draws seeded random LTL formulas and generated specifications, checks
// the fixed specifications (Table I, one per grammar production,
// examples/specs and its faults) on every seed, runs the cross-check
// properties of difftest/oracle.hpp, and greedily shrinks any
// disagreement before reporting it. Every failure
// prints a one-command reproduction; re-running it replays generation,
// oracle randomness, and shrinking bit-for-bit.
//
//   $ ./speccc_fuzz --seed 42 --formulas 500 --specs 50
//
// Options:
//   --seed N          master seed (default 1)
//   --formulas N      random formula cases (default 500)
//   --specs N         generated specification cases (default 50)
//   --formula-case K  replay only formula case K
//   --spec-case K     replay only spec case K
//   --max-depth D     formula depth budget (default 4)
//   --props N         proposition pool size (default 3)
//   --lassos N        random lassos per formula (default 4)
//   --no-shrink       report raw counterexamples without minimizing
//   --quiet           suppress progress narration
//
// Exit code: 0 when every cross-check holds and the formula quota was
// met, 1 on any disagreement, 2 on usage errors, 3 when mass tableau-cap
// skips left the quota unmet (a green exit must mean real coverage).
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "difftest/harness.hpp"

namespace {

int usage() {
  std::cerr << "usage: speccc_fuzz [--seed N] [--formulas N] [--specs N]\n"
               "                   [--formula-case K] [--spec-case K]\n"
               "                   [--max-depth D] [--props N] [--lassos N]\n"
               "                   [--no-shrink] [--quiet]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace speccc;
  difftest::RunOptions options;
  options.progress = &std::cerr;
  if (!std::filesystem::is_directory(SPECCC_EXAMPLES_DIR "/specs")) {
    std::cerr << "speccc_fuzz: warning: no " SPECCC_EXAMPLES_DIR
                 "/specs; the fixed cases are Table I and the grammar "
                 "sentences only\n";
  }
  try {
    options.fixed_specs = difftest::fixed_spec_cases(SPECCC_EXAMPLES_DIR);
  } catch (const util::SpecError& e) {
    std::cerr << "speccc_fuzz: " << e.what() << "\n";
    return 2;
  }
  std::size_t props = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_int = [&](long long min_value) -> long long {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs an argument\n";
        std::exit(usage());
      }
      char* end = nullptr;
      const long long value = std::strtoll(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || value < min_value) {
        std::cerr << arg << ": bad value " << argv[i] << "\n";
        std::exit(usage());
      }
      return value;
    };
    if (arg == "--seed") {
      options.seed = static_cast<std::uint64_t>(next_int(0));
    } else if (arg == "--formulas") {
      options.formula_cases = static_cast<int>(next_int(0));
    } else if (arg == "--specs") {
      options.spec_cases = static_cast<int>(next_int(0));
    } else if (arg == "--formula-case") {
      options.only_formula_case = static_cast<int>(next_int(0));
    } else if (arg == "--spec-case") {
      options.only_spec_case = static_cast<int>(next_int(0));
    } else if (arg == "--max-depth") {
      options.formula.max_depth = static_cast<std::size_t>(next_int(1));
    } else if (arg == "--props") {
      props = static_cast<std::size_t>(next_int(1));
    } else if (arg == "--lassos") {
      options.oracle.lassos_per_formula = static_cast<int>(next_int(1));
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--quiet") {
      options.progress = nullptr;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return usage();
    }
  }
  if (props > 0) {
    // The formula pool and the lasso pool must match, or the random-lasso
    // cross-checks would starve formulas of their propositions.
    options.formula.props = difftest::proposition_pool(props);
    options.oracle.lasso.props = options.formula.props;
  }

  const bool single_case =
      options.only_formula_case >= 0 || options.only_spec_case >= 0;
  const difftest::RunReport report = difftest::run(options);
  std::cout << difftest::describe(report);

  if (!report.ok()) {
    std::cout << "\ndifferential check FAILED\n";
    return 1;
  }
  // A green run must mean the quota was met: mass skips at the tableau cap
  // (e.g. a GPVW regression inflating node counts) must not pass CI.
  if (!single_case && report.formulas_checked < options.formula_cases) {
    std::cout << "formula quota MISSED: " << report.formulas_checked << "/"
              << options.formula_cases << " checked ("
              << report.formulas_skipped
              << " skipped at the tableau cap); raise --max-depth caps or "
                 "OracleOptions::max_tableau_nodes\n";
    return 3;
  }
  std::cout << "all engines agree\n";
  return 0;
}
