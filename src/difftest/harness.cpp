#include "difftest/harness.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "batch/corpus_tasks.hpp"
#include "corpus/loaders.hpp"
#include "difftest/shrink.hpp"
#include "util/diagnostics.hpp"

namespace speccc::difftest {

namespace {

constexpr auto mix = util::Rng::mix;

void narrate(const RunOptions& options, const std::string& line) {
  if (options.progress != nullptr) *options.progress << line << "\n";
}

std::string reproduce_command(const RunOptions& options, CaseKind kind,
                              int index) {
  // Replay must regenerate the exact same case, so every generation/oracle
  // knob that differs from its default travels with the command.
  static const RunOptions defaults;
  std::ostringstream out;
  out << "speccc_fuzz --seed " << options.seed;
  if (kind == CaseKind::kFixed) {
    // Fixed cases need no generation: the seed-only run re-checks them.
    out << " --formulas 0 --specs 0";
    return out.str();
  }
  if (options.formula.max_depth != defaults.formula.max_depth) {
    out << " --max-depth " << options.formula.max_depth;
  }
  if (options.formula.props != defaults.formula.props) {
    out << " --props " << options.formula.props.size();
  }
  if (options.oracle.lassos_per_formula !=
      defaults.oracle.lassos_per_formula) {
    out << " --lassos " << options.oracle.lassos_per_formula;
  }
  if (!options.shrink) out << " --no-shrink";
  out << " " << (kind == CaseKind::kFormula ? "--formula-case" : "--spec-case")
      << " " << index;
  return out.str();
}

void run_formula_case(const RunOptions& options, int index, RunReport& report) {
  const std::uint64_t cs = case_seed(options.seed, CaseKind::kFormula, index);
  util::Rng generation(cs);
  const ltl::Formula formula = random_formula(generation, options.formula);

  // The oracle rng is re-seeded per predicate call so that the shrinker's
  // re-checks are deterministic and the original failure reproduces.
  const std::uint64_t oracle_seed = mix(cs);
  const auto oracle_message =
      [&](ltl::Formula f) -> std::optional<std::string> {
    util::Rng rng(oracle_seed);
    return check_formula(f, rng, options.oracle);
  };

  bool skipped = false;
  util::Rng first_rng(oracle_seed);
  const auto message =
      check_formula(formula, first_rng, options.oracle, &skipped);
  if (skipped) {
    ++report.formulas_skipped;
    narrate(options, "skip formula case " + std::to_string(index) +
                         " (tableau cap)");
    return;
  }
  ++report.formulas_checked;
  if (!message) return;

  CaseFailure failure;
  failure.kind = CaseKind::kFormula;
  failure.index = index;
  failure.case_seed = cs;
  failure.detail = *message;
  failure.reproduce = reproduce_command(options, CaseKind::kFormula, index);
  failure.shrunk = formula;
  if (options.shrink) {
    failure.shrunk = shrink_formula(
        formula, [&](ltl::Formula f) { return oracle_message(f).has_value(); });
  }
  failure.shrunk_detail = oracle_message(failure.shrunk).value_or(*message);
  narrate(options, "FAIL formula case " + std::to_string(index) + ": " +
                       failure.shrunk_detail);
  report.failures.push_back(std::move(failure));
}

/// Check one specification case and, on failure, shrink and record it.
void check_spec_case(const RunOptions& options, CaseKind kind, int index,
                     const std::string& name, const SpecCase& spec,
                     RunReport& report) {
  const std::uint64_t cs = case_seed(options.seed, kind, index);
  const std::uint64_t oracle_seed = mix(cs);
  const auto oracle_message = [&](const std::vector<ltl::Formula>& requirements,
                                  BoundedCoverage* coverage = nullptr)
      -> std::optional<std::string> {
    util::Rng rng(oracle_seed);
    return check_spec({requirements, spec.signature}, rng, options.oracle,
                      coverage);
  };

  const bool fixed = kind == CaseKind::kFixed;
  ++(fixed ? report.fixed_checked : report.specs_checked);
  BoundedCoverage coverage = BoundedCoverage::kAbstained;
  const auto message = oracle_message(spec.requirements, &coverage);
  RunReport::BoundedCounts& counts =
      fixed ? report.fixed_bounded : report.specs_bounded;
  ++(coverage == BoundedCoverage::kDefinite ? counts.definite
     : coverage == BoundedCoverage::kUnknown ? counts.unknown
                                             : counts.abstained);
  if (!message) return;

  CaseFailure failure;
  failure.kind = kind;
  failure.index = index;
  failure.name = name;
  failure.case_seed = cs;
  failure.detail = *message;
  failure.reproduce = reproduce_command(options, kind, index);
  failure.shrunk_spec = spec.requirements;
  if (options.shrink) {
    failure.shrunk_spec = shrink_spec(
        spec.requirements, [&](const std::vector<ltl::Formula>& requirements) {
          return oracle_message(requirements).has_value();
        });
  }
  failure.shrunk_detail = oracle_message(failure.shrunk_spec).value_or(*message);
  narrate(options, "FAIL spec case " + std::to_string(index) + " " + name +
                       ": " + failure.shrunk_detail);
  report.failures.push_back(std::move(failure));
}

void run_spec_case(const RunOptions& options, int index, RunReport& report) {
  const GeneratedSpec generated = generated_spec(options.seed, index, options.spec);
  check_spec_case(options, CaseKind::kSpec, index, generated.name,
                  build_spec_case(generated.requirements), report);
}

}  // namespace

const std::vector<std::string>& grammar_sentences() {
  static const std::vector<std::string> sentences = {
    "If the door button is pressed, the lock signal is updated.",
    "If auto control mode is running, the alarm is raised.",
    "The system issues an alarm.",
    "If the cuff is available, the alarm is raised.",
    "If the robot is in room 1 or room 2, the light is on.",
    "When a start auto control button is enabled, the start auto control button is enabled until it is pressed.",
    "The alarm is raised before the door is open.",
    "Before the door is open, the alarm is raised.",
    "Eventually the alarm is raised.",
    "When the door sensor is detected, eventually the alarm is raised.",
    "The CARA will be operational whenever the LSTAT is powered on.",
    "If the battery status is measured, the monitor light is activated in 10 seconds.",
    "If the battery status is measured, the monitor light is activated in 2 minutes.",
    "If the button is pressed, next the alarm is raised.",
    "Whenever the door is open, the alarm is raised.",
    "Once the door is open, the alarm is raised.",
    "While the door is open, the alarm is raised.",
    "After the door is open, the alarm is raised.",
    "Always the alarm is raised.",
    "Globally the alarm is raised.",
    "Immediately the alarm is raised.",
    "Sometimes the alarm is raised.",
    "If the cuff is lost, the alarm is raised.",
    "If the cuff is unavailable, the alarm is raised.",
    "If Air Ok signal remains low, auto control mode is terminated in 3 seconds.",
    "If the valve is closed, the pump is not started.",
    "If a pump is plugged in, and an infusate is ready, and the occlusion line is clear, auto control mode can be started.",
    "If the arterial line, or pulse wave or cuff is lost, the alarm is raised.",
    "If override selection is provided, if override yes is pressed, next arterial line is selected.",
    "If start auto control button is pressed, and cuff is not available, an alarm is issued and override selection is provided.",
    "If cuff and arterial line and pulse wave are not available, next manual mode is started.",
    "The alarm will be raised.",
    "The pump shall issue an alarm.",
    "The pump must not be started.",
    "No alarm is raised.",
    "If the door button is pressed, the lock signal is updated and eventually the alarm is raised.",
    "If the door button is pressed, the lock signal is updated or eventually the alarm is raised.",
    "If the door is open, the light is on in 3 seconds and the alarm is raised in 60 seconds.",
    "If the door is open, the light is on or the alarm is raised in 60 seconds.",
    "If the door is open and the light is on in 60 seconds, the alarm is raised.",
    "If the door is open or the light is on in 60 seconds, the alarm is raised.",
    "The alarm will be raised and the light will be on.",
    "The cuff is available and the cuff is not available in 13 seconds.",
    "The alarm will be raised until the button is pressed.",
    "If the door is open, the alarm will be raised until the button is pressed.",
    "If eventually the door is open, the alarm is raised.",
    "If eventually the button is pressed, eventually the alarm is raised.",
    "If eventually the button is pressed, the alarm is raised until the light is off.",
    "If eventually the door is open, the alarm will be raised until the button is pressed.",
    "The alarm will be raised until eventually the motor is started.",
    "The alarm is raised in 2 seconds until the light is on.",
    "The alarm is raised in 20 seconds until the light is on.",
    "The alarm is raised in 2 seconds or the light is on in 3 seconds.",
    "The alarm is raised in 20 seconds or the light is on in 30 seconds.",
    "If the button is pressed in 2 seconds, the alarm is raised in 3 seconds.",
    "If the button is pressed in 20 seconds, the alarm is raised in 30 seconds.",
    "If the button is pressed in 20 seconds, eventually the alarm is raised.",
    "If the button is pressed in 20 seconds, the alarm is raised until the light is off.",
    "If the button is pressed, the alarm is raised in 20 seconds or eventually the light is on.",
  };
  return sentences;
}

std::vector<batch::SpecTask> fixed_spec_cases(const std::string& examples_dir) {
  namespace fs = std::filesystem;
  std::vector<batch::SpecTask> cases = batch::table1_tasks();
  const std::vector<std::string>& sentences = grammar_sentences();
  for (std::size_t i = 0; i < sentences.size(); ++i) {
    cases.push_back({"grammar/" + std::to_string(i + 1), {{"G1", sentences[i]}}});
  }
  std::vector<fs::path> files;
  const fs::path specs = fs::path(examples_dir) / "specs";
  if (fs::is_directory(specs)) {
    for (const auto& entry : fs::recursive_directory_iterator(specs)) {
      if (entry.path().extension() == ".txt") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    std::ifstream in(file);
    cases.push_back({fs::relative(file, specs).generic_string(),
                     corpus::load_requirements(in)});
  }
  return cases;
}

RunReport run(const RunOptions& options) {
  RunReport report;
  const int progress_stride = 100;
  // Single-case replay: when either only_* index is set, nothing else
  // runs -- not the other kind's cases either.
  if (options.only_formula_case >= 0 || options.only_spec_case >= 0) {
    if (options.only_formula_case >= 0) {
      run_formula_case(options, options.only_formula_case, report);
    }
    if (options.only_spec_case >= 0) {
      run_spec_case(options, options.only_spec_case, report);
    }
    return report;
  }
  {
    // Keep drawing cases until `formula_cases` formulas were genuinely
    // checked, topping up past tableau-cap skips (bounded attempts so a
    // degenerate configuration -- e.g. a depth/cap combination that skips
    // almost everything -- still terminates; a shortfall is reported, not
    // hidden).
    const int max_attempts = 2 * options.formula_cases + 64;
    for (int i = 0; i < max_attempts &&
                    report.formulas_checked < options.formula_cases;
         ++i) {
      if (static_cast<int>(report.failures.size()) >= options.max_failures) {
        break;
      }
      if (i > 0 && i % progress_stride == 0) {
        narrate(options, "formula case " + std::to_string(i) + "/" +
                             std::to_string(options.formula_cases));
      }
      run_formula_case(options, i, report);
    }
    if (report.formulas_checked < options.formula_cases &&
        static_cast<int>(report.failures.size()) < options.max_failures) {
      narrate(options,
              "WARNING: only " + std::to_string(report.formulas_checked) +
                  " of " + std::to_string(options.formula_cases) +
                  " formula cases checked (" +
                  std::to_string(report.formulas_skipped) +
                  " skipped at the tableau cap); raise max_tableau_nodes or "
                  "lower the formula depth");
    }
  }
  for (std::size_t i = 0; i < options.fixed_specs.size(); ++i) {
    if (static_cast<int>(report.failures.size()) >= options.max_failures) {
      break;
    }
    const batch::SpecTask& fixed = options.fixed_specs[i];
    check_spec_case(options, CaseKind::kFixed, static_cast<int>(i), fixed.name,
                    build_spec_case(fixed.requirements), report);
  }
  for (int i = 0; i < options.spec_cases; ++i) {
    if (static_cast<int>(report.failures.size()) >= options.max_failures) {
      break;
    }
    run_spec_case(options, i, report);
  }
  return report;
}

std::string describe(const RunReport& report) {
  std::ostringstream out;
  out << report.formulas_checked << " formula case(s)";
  if (report.formulas_skipped > 0) {
    out << " (+" << report.formulas_skipped << " skipped at the tableau cap)";
  }
  const auto bounded = [&out](const RunReport::BoundedCounts& counts) {
    out << " (bounded: " << counts.definite << " definite, " << counts.unknown
        << " unknown, " << counts.abstained << " past the alphabet cap)";
  };
  out << ", " << report.fixed_checked << " fixed spec case(s)";
  bounded(report.fixed_bounded);
  out << ", " << report.specs_checked << " spec case(s)";
  bounded(report.specs_bounded);
  out << ", " << report.failures.size() << " failure(s)\n";
  for (const CaseFailure& failure : report.failures) {
    out << "\n"
        << (failure.kind == CaseKind::kFormula ? "formula"
            : failure.kind == CaseKind::kFixed ? "fixed spec"
                                               : "spec")
        << " case " << failure.index;
    if (!failure.name.empty()) out << " " << failure.name;
    out << " (case seed " << failure.case_seed << ")\n"
        << "  property:  " << failure.detail << "\n";
    if (failure.kind == CaseKind::kFormula) {
      out << "  minimized: " << ltl::to_string(failure.shrunk) << "\n";
    } else {
      out << "  minimized:\n";
      for (const ltl::Formula f : failure.shrunk_spec) {
        out << "    " << ltl::to_string(f) << "\n";
      }
    }
    if (failure.shrunk_detail != failure.detail) {
      out << "  which now fails as: " << failure.shrunk_detail << "\n";
    }
    out << "  reproduce: " << failure.reproduce << "\n";
  }
  return out.str();
}

}  // namespace speccc::difftest
