#include "core/report.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

namespace speccc::core {

TableRow to_row(const std::string& group, const std::string& number,
                const PipelineResult& result, double paper_seconds) {
  TableRow row;
  row.group = group;
  row.number = number;
  row.name = result.name;
  row.formulas = result.num_formulas();
  row.inputs = result.num_inputs();
  row.outputs = result.num_outputs();
  row.seconds = result.synthesis_seconds + result.refinement_seconds;
  row.paper_seconds = paper_seconds;
  row.consistent = result.consistent;
  row.refined = result.refined();
  return row;
}

void print_table(std::ostream& os, const std::vector<TableRow>& rows) {
  os << std::left << std::setw(7) << "Group" << std::setw(7) << "No."
     << std::setw(34) << "Specification" << std::right << std::setw(9)
     << "formulas" << std::setw(5) << "in" << std::setw(5) << "out"
     << std::setw(12) << "time(s)" << std::setw(12) << "paper(s)"
     << "  verdict\n";
  os << std::string(100, '-') << "\n";
  for (const TableRow& r : rows) {
    os << std::left << std::setw(7) << r.group << std::setw(7) << r.number
       << std::setw(34) << r.name << std::right << std::setw(9) << r.formulas
       << std::setw(5) << r.inputs << std::setw(5) << r.outputs << std::setw(12)
       << std::fixed << std::setprecision(4) << r.seconds << std::setw(12)
       << std::setprecision(0) << r.paper_seconds << "  "
       << (r.consistent ? (r.refined ? "consistent (after repartition)"
                                     : "consistent")
                        : "INCONSISTENT")
       << "\n";
  }
}

std::string describe(const PipelineResult& result) {
  std::ostringstream os;
  os << "specification: " << result.name << "\n";
  os << "  requirements: " << result.num_formulas() << "\n";
  os << "  propositions: " << result.translation.propositions.size() << " ("
     << result.num_inputs() << " inputs, " << result.num_outputs()
     << " outputs)\n";
  if (result.abstraction.has_value()) {
    os << "  time abstraction: d = " << result.abstraction->divisor
       << ", sum theta' = " << result.abstraction->reduced_sum
       << ", sum |Delta| = " << result.abstraction->error_sum << "\n";
  }
  if (!result.unsatisfiable_requirements.empty()) {
    os << "  UNSATISFIABLE requirements:";
    for (const auto& id : result.unsatisfiable_requirements) os << " " << id;
    os << "\n";
  }
  os << "  semantic reasoning: " << result.translation.reasoning.pairs.size()
     << " antonym pairs\n";
  os << "  stage 1 (translation): " << std::fixed << std::setprecision(4)
     << result.translation_seconds << " s\n";
  os << "  stage 2 (synthesis):   " << result.synthesis_seconds
     << " s\n";
  if (result.refinement.has_value()) {
    os << "  stage 3 (refinement):  " << result.refinement_seconds << " s, "
       << result.refinement->checks << " realizability checks\n";
    if (!result.refinement->localization.core.empty()) {
      os << "    inconsistent core:";
      for (std::size_t i : result.refinement->localization.core) {
        os << " " << result.translation.requirements[i].id;
      }
      os << "\n";
    }
    if (result.refinement->adjustment.has_value()) {
      os << "    repartitioned: " << result.refinement->adjustment->variable
         << " -> " << (result.refinement->adjustment->now_input ? "input" : "output")
         << "\n";
    }
  }
  os << "  verdict: " << (result.consistent ? "consistent" : "INCONSISTENT")
     << "\n";
  return os.str();
}

}  // namespace speccc::core
