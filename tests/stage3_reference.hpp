// The reference stage 3 of the identity sweeps in diag_test and
// difftest_test: every question is decided whole by synth::synthesize, an
// inconsistent query is its own core, and the screen asks every
// requirement. It replays refine's localize / flip / correction-set loop
// and the satisfiability screen with that oracle, so a pipeline run that
// decides by output-connected components must report the same MUS,
// related set, adjustment, correction sets and unsatisfiable requirements.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/pipeline.hpp"
#include "diag/diag.hpp"
#include "partition/partition.hpp"
#include "synth/synthesizer.hpp"

namespace stage3_reference {

namespace detail {

inline bool realizable(const std::vector<speccc::ltl::Formula>& formulas,
                       const speccc::synth::IoSignature& signature) {
  return speccc::synth::synthesize(formulas, signature).verdict ==
         speccc::synth::Realizability::kRealizable;
}

template <typename T>
std::string join(const std::vector<T>& items) {
  std::string out = "{";
  for (std::size_t k = 0; k < items.size(); ++k) {
    if (k != 0) out += ",";
    if constexpr (std::is_same_v<T, std::string>) {
      out += items[k];
    } else {
      out += std::to_string(items[k]);
    }
  }
  return out + "}";
}

}  // namespace detail

struct Stage3 {
  std::vector<std::size_t> mus;
  std::vector<std::size_t> related;
  std::vector<std::vector<std::size_t>> correction_sets;
  std::optional<speccc::refine::Adjustment> adjustment;
  std::vector<std::string> unsatisfiable;
};

/// Stage 3 of `result` (an inconsistent stage-2 verdict under the default
/// partition overrides) with whole-set questions and echoed cores.
inline Stage3 reference(const speccc::core::PipelineResult& result,
                        std::size_t max_correction_sets) {
  using speccc::ltl::Formula;
  const std::vector<Formula> formulas = result.translation.formulas();
  const speccc::partition::Partition initial =
      speccc::partition::unify(formulas, {});
  const speccc::synth::IoSignature signature = initial.signature();
  const speccc::diag::CoreOracle echo =
      [&](const std::vector<std::size_t>& subset)
      -> std::optional<std::vector<std::size_t>> {
    if (subset.empty()) return std::nullopt;
    std::vector<Formula> chosen;
    for (std::size_t i : subset) chosen.push_back(formulas[i]);
    if (detail::realizable(chosen, signature)) return std::nullopt;
    return subset;
  };

  Stage3 out;
  std::vector<std::size_t> all(formulas.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::size_t checks = 0;
  if (echo(all)) out.mus = speccc::diag::shrink_mus(all, echo, checks);

  std::set<std::string> core_props;
  for (std::size_t i : out.mus) {
    const auto atoms = formulas[i].atoms();
    core_props.insert(atoms.begin(), atoms.end());
  }
  std::map<std::string, std::size_t> occurrence;
  for (std::size_t i = 0; i < formulas.size(); ++i) {
    const auto atoms = formulas[i].atoms();
    if (std::none_of(atoms.begin(), atoms.end(), [&](const std::string& a) {
          return core_props.count(a) > 0;
        })) {
      continue;
    }
    out.related.push_back(i);
    for (const std::string& a : atoms) {
      if (core_props.count(a) > 0) ++occurrence[a];
    }
  }
  std::vector<std::string> candidates(core_props.begin(), core_props.end());
  std::sort(candidates.begin(), candidates.end(),
            [&](const std::string& a, const std::string& b) {
              return occurrence[a] != occurrence[b]
                         ? occurrence[a] > occurrence[b]
                         : a < b;
            });
  for (const std::string& variable : candidates) {
    speccc::partition::Partition flipped = initial;
    const bool was_input = flipped.is_input(variable);
    if (was_input) {
      flipped.inputs.erase(variable);
      flipped.outputs.insert(variable);
    } else {
      flipped.outputs.erase(variable);
      flipped.inputs.insert(variable);
    }
    if (flipped.inputs.empty()) continue;
    if (detail::realizable(formulas, flipped.signature())) {
      out.adjustment = speccc::refine::Adjustment{variable, !was_input};
      break;
    }
  }
  if (!out.adjustment && max_correction_sets > 0) {
    out.correction_sets =
        speccc::diag::correction_sets(all, echo, max_correction_sets, checks);
  }

  for (std::size_t i = 0; i < formulas.size(); ++i) {
    const auto atoms = formulas[i].atoms();
    if (!detail::realizable({formulas[i]},
                            {{}, {atoms.begin(), atoms.end()}})) {
      out.unsatisfiable.push_back(result.translation.requirements[i].id);
    }
  }
  return out;
}

/// Empty when `result`'s stage 3 (run with `max_correction_sets`) matches
/// the reference byte for byte; otherwise the first difference.
inline std::string mismatch(const speccc::core::PipelineResult& result,
                            std::size_t max_correction_sets) {
  if (!result.refinement) return "no refinement outcome";
  const Stage3 want = reference(result, max_correction_sets);
  const auto& got = *result.refinement;
  const auto& loc = got.localization;
  if (loc.core != want.mus) {
    return "mus " + detail::join(loc.core) + " != " + detail::join(want.mus);
  }
  if (loc.related != want.related) {
    return "related " + detail::join(loc.related) + " != " +
           detail::join(want.related);
  }
  if (got.adjustment.has_value() != want.adjustment.has_value() ||
      (got.adjustment &&
       (got.adjustment->variable != want.adjustment->variable ||
        got.adjustment->now_input != want.adjustment->now_input))) {
    return "adjustment " +
           (got.adjustment ? got.adjustment->variable : std::string("none")) +
           " != " +
           (want.adjustment ? want.adjustment->variable : std::string("none"));
  }
  if (loc.correction_sets != want.correction_sets) {
    std::string text = "correction sets differ:";
    for (const auto& set : loc.correction_sets) text += " " + detail::join(set);
    text += " vs";
    for (const auto& set : want.correction_sets) text += " " + detail::join(set);
    return text;
  }
  if (result.unsatisfiable_requirements != want.unsatisfiable) {
    return "unsat " + detail::join(result.unsatisfiable_requirements) +
           " != " + detail::join(want.unsatisfiable);
  }
  return "";
}

}  // namespace stage3_reference
