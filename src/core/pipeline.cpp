#include "core/pipeline.hpp"

#include "util/diagnostics.hpp"

namespace speccc::core {

Pipeline::Pipeline(PipelineOptions options)
    : options_(std::move(options)),
      lexicon_(options_.lexicon.value_or(nlp::Lexicon::builtin())),
      dictionary_(
          options_.dictionary.value_or(semantics::AntonymDictionary::builtin())),
      translator_(lexicon_, dictionary_, options_.translation,
                  options_.cache.get()) {
  // Stage 2, the screen and every stage-3 probe poll this one predicate.
  options_.synthesis.cancelled = options_.cancelled;
}

translate::TranslationResult Pipeline::translate(
    const std::vector<translate::RequirementText>& requirements,
    std::optional<timeabs::Abstraction>& abstraction) const {
  // One pass: the translator hands Theta, read off the parse trees, to the
  // optimizer and builds every formula with the abstracted counts.
  return translator_.translate(
      requirements,
      [&](const std::vector<std::uint32_t>& thetas) -> translate::TickMapper {
        if (!options_.time_abstraction || thetas.empty()) return nullptr;
        timeabs::Request request;
        request.thetas = thetas;
        request.error_budget = options_.error_budget;
        abstraction = timeabs::optimize(request);
        return timeabs::tick_mapper(thetas, *abstraction);
      });
}

PipelineResult Pipeline::run(
    const std::string& name,
    const std::vector<translate::RequirementText>& requirements) const {
  PipelineResult result;
  result.name = name;

  const auto poll_cancel = [&](const char* stage) {
    if (options_.cancelled && options_.cancelled()) {
      throw util::CancelledError("pipeline run '" + name +
                                 "' cancelled before " + stage);
    }
  };

  cache::Store* const store = options_.cache.get();

  // ---- Stage 1: translation ---------------------------------------------------
  poll_cancel("translation");
  util::Stopwatch stage1;
  result.translation = translate(requirements, result.abstraction);
  const std::vector<ltl::Formula> formulas = result.translation.formulas();
  result.partition = partition::unify(formulas, options_.partition_overrides);
  result.translation_seconds = stage1.seconds();

  // ---- Stage 2: realizability -------------------------------------------------
  poll_cancel("synthesis");
  const synth::IoSignature signature = result.partition.signature();

  util::Stopwatch stage2;
  result.synthesis = cache::memoize<cache::Kind::kSynthesis>(
      store,
      [&] {
        return cache::synthesis_key(formulas, signature, options_.synthesis);
      },
      [&] { return synth::synthesize(formulas, signature, options_.synthesis); });
  result.synthesis_seconds = stage2.seconds();
  result.consistent =
      result.synthesis.verdict == synth::Realizability::kRealizable;

  // ---- Stage 3: refinement loop and satisfiability screen --------------------
  // A realizable conjunction has no unsatisfiable conjunct, so the stage,
  // screen included, runs only here. One memo entry covers all of it: a
  // hit builds no oracle and asks no realizability question.
  if (!result.consistent) {
    if (options_.refine_on_failure) poll_cancel("refinement");
    util::Stopwatch stage3;
    refine::StageThree stage = cache::memoize<cache::Kind::kStageThree>(
        store,
        [&] {
          return cache::stage_three_key(formulas, signature, options_.synthesis,
                                        options_.localization,
                                        options_.refine_on_failure);
        },
        [&] {
          return refine::stage_three(formulas, result.partition,
                                     options_.synthesis, options_.localization,
                                     options_.refine_on_failure);
        });
    result.refinement = std::move(stage.refinement);
    if (result.refined()) {
      result.consistent = true;
      result.partition = result.refinement->partition;
    }
    // Keys cover formulas, not ids: the ids come from this run.
    for (std::size_t i : stage.unsatisfiable) {
      result.unsatisfiable_requirements.push_back(
          result.translation.requirements[i].id);
    }
    result.refinement_seconds = stage3.seconds();
  }
  return result;
}

}  // namespace speccc::core
